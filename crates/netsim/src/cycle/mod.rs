//! Cycle-level, flit-granularity network simulator (the paper's BookSim
//! substrate, §V-A).
//!
//! Faithfully models:
//!
//! * **routers** with per-(input, VC) buffers, one-flit-per-cycle links,
//!   round-robin output arbitration and a crossbar constraint of one flit
//!   per input and per output per cycle;
//! * **credit-based flow control**: virtual cut-through for conventional
//!   packets (the downstream buffer must fit the whole packet before the
//!   head advances) and wormhole for the co-designed big gradient
//!   messages (Table III / §IV-B);
//! * **dateline virtual channels** on torus wraparound links so
//!   multi-hop DOR traffic (DBTree) stays deadlock-free;
//! * **source routing**: every message carries its precomputed link path
//!   in the head flit, exactly as the co-designed NI does (§IV-B);
//! * the co-designed **NI schedule management** (§IV-A): per-node
//!   in-order issue from the schedule, dependency clearing on message
//!   delivery, and the lockstep timestep counter with estimated step
//!   times.
//!
//! # Execution model
//!
//! The engine is cycle-accurate but **event-driven**: it only pays for
//! cycles in which some component can act.
//!
//! * Flits and credits in flight live in a **calendar queue** (a ring of
//!   per-cycle arrival lists indexed by `arrival % (latency + 1)` — every
//!   wire delay is the same constant), so arrival processing touches
//!   exactly the arriving flits instead of scanning every link.
//! * An arriving flit is **ejected at arrival**, never touching its
//!   buffer, when it is the flit the router stage would eject this cycle:
//!   it terminates at this vertex, its (link, VC) buffer is empty, no
//!   lower VC of the link has an eject-ready front and (under faults) the
//!   destination NI is alive. It claims its input link and returns its
//!   credit in the same cycle, exactly as a buffered ejection would;
//!   ejection runs before output arbitration at a vertex and a link
//!   delivers at most one flit per cycle, so nothing else can observe the
//!   difference. Most flits of contention-free schedules (MULTITREE, rings)
//!   leave this way. Runs with an enabled observer keep the buffered path,
//!   so their per-flit hooks are unchanged.
//! * Each input link keeps an **eject-ready VC mask** (bit `vc` set while
//!   that buffer's front terminates here), maintained wherever the
//!   front-info cache changes. Ejection takes the lowest set bit instead
//!   of probing every VC, a per-vertex count of set bits skips vertices
//!   with nothing to eject, and the same mask decides whether an arriving
//!   flit may bypass its buffer.
//! * Routers are visited through an **active-vertex worklist** (a bitset
//!   iterated in ascending order, so arbitration order matches a dense
//!   scan bit for bit): a vertex is live while it holds buffered flits
//!   or pending injection streams, and is lazily retired when drained.
//! * An NI is **woken only when it can act**: when one of its events has
//!   its last dependency cleared, when its lockstep step boundary arrives
//!   (a timer heap ordered by cycle), or in the cycle after it issues
//!   with its boundary already past. A visit in any other cycle provably
//!   does nothing, so the NIs woken in a cycle are visited in ascending
//!   node order and issue exactly what a visit of every NI would.
//! * When the network is **quiescent** — no buffered flits, no pending
//!   injection streams, no deliveries this cycle — the clock jumps
//!   straight to the next arrival front or lockstep step boundary
//!   instead of spinning one cycle at a time through ~150-cycle link
//!   latencies. Every skipped cycle is provably a no-op, so results are
//!   bit-identical to the dense reference engine
//!   ([`CycleEngine::run_reference_detailed`], enforced by
//!   `tests/prepared_equivalence.rs`), and every report of the golden
//!   corpus, healthy and faulted, is pinned bit for bit by
//!   `crates/netsim/tests/golden_reports.rs`.
//! * All simulation state (buffers, calendars, messages, NI tables,
//!   worklists) lives in [`SimScratch`] and is reused across runs; the
//!   steady-state loop performs **no heap allocation**, and per-event
//!   link paths are borrowed from the [`PreparedSchedule`] rather than
//!   copied.
//!
//! This makes multi-MiB cycle-accurate runs practical; the [`crate::flow`]
//! engine remains the fast path for the very largest sweeps.

use crate::config::NetworkConfig;
use crate::fault::{CompiledFaults, FaultEvent, FaultPlan, FaultReport, FaultedRun, NO_FAULTS};
use crate::flowctrl::frame_message;
use crate::observer::{NoopObserver, ObservedEngine, RunInfo, SimObserver};
use crate::report::{EngineDetail, EngineReport, SimReport};
use crate::scratch::{reset_to, SimScratch};
use crate::Engine;
use multitree::{AlgorithmError, CommSchedule, PreparedSchedule};
use mt_topology::Topology;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The cycle-level engine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CycleEngine {
    cfg: NetworkConfig,
    max_cycles: u64,
}

impl CycleEngine {
    /// Creates an engine with the given configuration and a default
    /// 200M-cycle watchdog.
    pub fn new(cfg: NetworkConfig) -> Self {
        CycleEngine {
            cfg,
            max_cycles: 200_000_000,
        }
    }

    /// Overrides the deadlock watchdog.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }
}

mod dateline;
mod flit;
mod inject;
mod reference;
mod router;

pub(crate) use dateline::dateline_links;
use dateline::dateline_links_into;
use flit::{Flit, Msg};
use inject::{InjStream, Nic};

/// Reusable cycle-engine state, embedded in [`SimScratch`]. Every vector
/// is sized per run (capacity persists across runs) and cleared before
/// use; no state leaks between runs.
#[derive(Default)]
pub(crate) struct CycleScratch {
    /// Per (link * num_vcs + vc): input buffer at the link's destination.
    /// Deques size themselves to each buffer's actual demand, which keeps
    /// the hot working set far smaller than a uniform
    /// `vc_buffer_flits`-deep slab would.
    buffers: Vec<VecDeque<Flit>>,
    /// Per (link * num_vcs + vc): compact summary of the buffer's front
    /// flit, refreshed on every push-to-empty and pop. Arbitration and
    /// ejection scans probe this small contiguous array instead of
    /// dereferencing scattered heap deques and message paths — the
    /// probes vastly outnumber the pushes and pops that maintain it.
    front_info: Vec<FrontInfo>,
    /// Per input link: bit `vc` is set while the (link, vc) buffer's
    /// front flit terminates here (its front info is [`FRONT_EJECT`]),
    /// kept in step by `set_front`. Ejection picks the lowest set bit
    /// instead of probing every VC, and an arriving flit may bypass its
    /// buffer only when no lower VC is eject-ready.
    eject_mask: Vec<u64>,
    /// Per vertex: eject-ready fronts across its input links (set bits
    /// of their `eject_mask`s); ejection skips vertices with none.
    eject_ready: Vec<u32>,
    /// Per link (as output): number of buffered head flits currently
    /// routed to it (fronts whose cached `next_link` is this link).
    /// When zero and the link's injection queue is empty, output
    /// arbitration cannot possibly succeed and the candidate scan is
    /// skipped — a pure optimization, since failed probes have no side
    /// effects.
    cand_count: Vec<u32>,
    /// Per (link * num_vcs + vc): credits available at the link's source.
    credits: Vec<u32>,
    /// Calendar ring of in-flight flits: slot `t % wheel` holds the
    /// (link, flit) pairs arriving at cycle `t`.
    cal_flits: Vec<Vec<(u32, Flit)>>,
    /// Calendar ring of in-flight credit returns: (link, vc) pairs.
    cal_credits: Vec<Vec<(u32, u8)>>,
    /// Per link (as output): current packet lock.
    locks: Vec<Option<Lock>>,
    /// Per link (as output): round-robin pointer over candidates.
    rr: Vec<u32>,
    /// Per link: is a torus dateline (wraparound) link.
    dateline: Vec<bool>,
    /// Per link: dense index of the destination vertex.
    link_dst: Vec<u32>,
    /// Per link: flits transmitted (utilization accounting).
    tx_count: Vec<u64>,
    msgs: Vec<Msg>,
    /// Per event: the not-yet-issued injection stream.
    streams: Vec<InjStream>,
    /// Per link: issued injection streams whose path starts with that
    /// link, FIFO — the per-(node, first-link) injection queues.
    inject_q: Vec<VecDeque<InjStream>>,
    /// Per node: total streams across that node's injection queues.
    inject_count: Vec<u32>,
    /// NI schedule tables: event indices grouped by source node (CSR
    /// rows via `ni_offsets`), each row ordered by (step, id).
    ni_order: Vec<u32>,
    ni_offsets: Vec<u32>,
    /// Per node: cursor into its `ni_order` row (in-order issue).
    ni_cursor: Vec<u32>,
    nics: Vec<Nic>,
    /// Per lockstep step: estimated step time in cycles (footnote 4).
    step_est: Vec<u64>,
    /// Per vertex: buffered flits + pending injection streams.
    vertex_work: Vec<u32>,
    /// Bitset over vertices with nonzero `vertex_work` (lazily retired).
    active_vertices: Vec<u64>,
    /// Bitset over nodes whose NI still has unissued events.
    ni_active: Vec<u64>,
    /// Bitset over nodes whose NI is visited in the next processed
    /// cycle: a dependency of one of its events just cleared, or it
    /// issued and its step boundary has already passed.
    ni_wake: Vec<u64>,
    /// Pending lockstep boundaries as (cycle, node), earliest first: an
    /// NI that finished its step waits here for `step_start + est`.
    ni_timers: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per node: the cycle of its pending boundary timer, or `u64::MAX`
    /// (at most one timer per node is ever queued).
    ni_timer_at: Vec<u64>,
    /// Bitset over input links already used this cycle (crossbar
    /// constraint), cleared each cycle.
    input_used: Vec<u64>,
    /// Messages fully ejected this cycle.
    newly_delivered: Vec<u32>,
}

impl CycleScratch {
    /// Total heap capacity (in elements across all buffers) — the
    /// steady-state allocation check compares this across runs.
    pub(crate) fn capacity_elements(&self) -> usize {
        self.buffers.iter().map(VecDeque::capacity).sum::<usize>()
            + self.front_info.capacity()
            + self.eject_mask.capacity()
            + self.eject_ready.capacity()
            + self.cand_count.capacity()
            + self.credits.capacity()
            + self.cal_flits.iter().map(Vec::capacity).sum::<usize>()
            + self.cal_credits.iter().map(Vec::capacity).sum::<usize>()
            + self.locks.capacity()
            + self.rr.capacity()
            + self.dateline.capacity()
            + self.link_dst.capacity()
            + self.tx_count.capacity()
            + self.msgs.capacity()
            + self.streams.capacity()
            + self.inject_q.iter().map(VecDeque::capacity).sum::<usize>()
            + self.inject_count.capacity()
            + self.ni_order.capacity()
            + self.ni_offsets.capacity()
            + self.ni_cursor.capacity()
            + self.nics.capacity()
            + self.step_est.capacity()
            + self.vertex_work.capacity()
            + self.active_vertices.capacity()
            + self.ni_active.capacity()
            + self.ni_wake.capacity()
            + self.ni_timers.capacity()
            + self.ni_timer_at.capacity()
            + self.input_used.capacity()
            + self.newly_delivered.capacity()
    }
}

/// What the head of one (link, VC) input buffer can do, reduced to two
/// words: `next_link` is the link index a startable head flit wants
/// next, [`FRONT_EJECT`] when the front flit terminates at this router,
/// or [`FRONT_NONE`] when the buffer is empty or fronted by a mid-route
/// body/tail flit (which only moves under an existing lock).
#[derive(Debug, Clone, Copy)]
struct FrontInfo {
    next_link: u32,
    /// Packet length for the VCT credit check (head fronts only).
    pkt_flits: u32,
    /// The front flit's VC (head fronts only), for output-VC selection.
    vc: u8,
    /// Dateline flag (head fronts only), for output-VC selection.
    crossed: bool,
}

const FRONT_NONE: u32 = u32::MAX;
const FRONT_EJECT: u32 = u32::MAX - 1;

impl Default for FrontInfo {
    fn default() -> Self {
        FrontInfo {
            next_link: FRONT_NONE,
            pkt_flits: 0,
            vc: 0,
            crossed: false,
        }
    }
}

fn bit_get(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 != 0
}

fn bit_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

fn bit_clear(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1 << (i & 63));
}

/// Clears every queue and resizes the vector of queues to `len`,
/// preserving the capacity of surviving queues.
fn reset_queues<T>(v: &mut Vec<VecDeque<T>>, len: usize) {
    v.truncate(len);
    for q in v.iter_mut() {
        q.clear();
    }
    v.resize_with(len, VecDeque::new);
}

/// Clears every list and resizes the vector of lists to `len`.
fn reset_lists<T>(v: &mut Vec<Vec<T>>, len: usize) {
    v.truncate(len);
    for l in v.iter_mut() {
        l.clear();
    }
    v.resize_with(len, Vec::new);
}

struct Sim<'a, 'p, O: SimObserver, const F: bool> {
    topo: &'a Topology,
    cfg: &'a NetworkConfig,
    prep: &'a PreparedSchedule<'p>,
    s: &'a mut CycleScratch,
    obs: &'a mut O,
    /// Compiled fault plan; [`NO_FAULTS`] (and never queried) when the
    /// `F` monomorphization flag is off.
    faults: &'a CompiledFaults,
    /// Per link: first cycle the link may transmit again — pacing state
    /// shared by fault degrades and static link rates (a link slowed by
    /// combined factor `k` moves one flit every `ceil(k)` cycles).
    /// Empty when `F` is off and the topology is uniform.
    link_next_free: Vec<u64>,
    /// Static rate pacing is live (non-uniform topology). Uniform
    /// healthy runs never consult the pacing state.
    paced: bool,
    /// Per link: static slowdown `rate_den / rate_num` (1.0 = full
    /// rate), multiplied into the fault degrade factor before the gap is
    /// rounded up. Empty on uniform topologies.
    rate_slow: Vec<f64>,
    /// Last cycle a flit moved (transmitted or ejected); feeds the
    /// stall watchdog. Only maintained when `F` is on.
    last_progress: u64,
    clock: u64,
    /// Effective wire delay in cycles (arrivals land `delay` cycles after
    /// transmission; at least 1 because arrivals are processed at the
    /// start of a cycle, before the router stage).
    delay: u64,
    /// Calendar ring size, `delay + 1`.
    wheel: u64,
    /// Calendar slot where anything sent this cycle lands,
    /// `(clock + delay) % wheel`, refreshed once per processed cycle.
    send_slot: usize,
    /// `cfg.cycle_ns()`, for the fault queries' ns timestamps.
    cycle_ns: f64,
    /// Total flits sitting in input buffers.
    buffered: u64,
    /// Total issued-but-unfinished injection streams.
    injecting: u64,
    /// Flits in flight on wires (calendar entries).
    inflight_flits: u64,
    /// Credits in flight on wires (calendar entries).
    inflight_credits: u64,
    max_buffer: usize,
}

impl<O: SimObserver, const F: bool> Sim<'_, '_, O, F> {
    /// The first cycle `nic` may leave its current step once the step's
    /// events are all issued: the step start plus the lockstep estimate
    /// (footnote 4), or the step start itself with lockstep off.
    fn step_boundary(&self, nic: Nic) -> u64 {
        let est = if self.cfg.lockstep {
            self.s.step_est[nic.cur_step as usize]
        } else {
            0
        };
        nic.step_start + est
    }
}

#[derive(Debug, Clone, Copy)]
struct Lock {
    /// Input the packet streams from: either a (link,vc) buffer or the
    /// local injection queue.
    from: Source,
    out_vc: u8,
    remaining: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Buffer { link: u32, vc: u8 },
    Injection,
}

/// Microarchitectural statistics from a detailed cycle run.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleStats {
    /// Flits transmitted per link (indexable by `LinkId::index`).
    pub link_flits: Vec<u64>,
    /// High-water mark of any single (input, VC) buffer, in flits.
    pub max_buffer_occupancy: usize,
    /// Cycles simulated.
    pub cycles: u64,
}

impl CycleStats {
    /// Links that carried at least one flit.
    pub fn links_used(&self) -> usize {
        self.link_flits.iter().filter(|&&c| c > 0).count()
    }

    /// Coefficient of load imbalance: max over mean flits among used
    /// links (1.0 = perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let used: Vec<u64> = self.link_flits.iter().copied().filter(|&c| c > 0).collect();
        if used.is_empty() {
            return 0.0;
        }
        let max = *used.iter().max().expect("non-empty") as f64;
        let mean = used.iter().sum::<u64>() as f64 / used.len() as f64;
        max / mean
    }
}

impl CycleEngine {
    /// The unified entry point: executes an already-prepared schedule,
    /// reusing `scratch`'s simulation buffers and streaming telemetry
    /// into `obs`. With [`NoopObserver`] every hook call site compiles
    /// out and this is the zero-allocation steady-state path,
    /// bit-identical to [`Engine::run`].
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::MalformedSchedule`] if the simulation
    /// exceeds the cycle watchdog, and [`AlgorithmError::PayloadTooLarge`]
    /// if an event's byte count overflows `u64`.
    pub fn run_prepared_with<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        obs: &mut O,
    ) -> Result<EngineReport, AlgorithmError> {
        let (report, core, _) =
            self.run_core::<O, false>(prep, total_bytes, scratch, obs, &NO_FAULTS, &[])?;
        Ok(EngineReport {
            sim: report,
            detail: EngineDetail::Cycle {
                cycles: core.cycles,
                max_buffer_occupancy: core.max_buffer,
            },
        })
    }

    /// Executes an already-prepared schedule once per payload size in
    /// `payloads` — the cycle-accurate twin of
    /// [`FlowEngine::run_prepared_batch_with`](crate::flow::FlowEngine::run_prepared_batch_with),
    /// and what the serving daemon's coalesced batches call for
    /// `EngineSpec::Cycle` requests.
    ///
    /// The prepared arrays are indexed from one borrow and `scratch`
    /// stays warm across runs; the flit-level message and NI tables are
    /// payload-*dependent*, so each run rebuilds them — a cycle run's
    /// execution dwarfs its table setup by orders of magnitude anyway.
    /// Per-payload reports are byte-identical to N independent
    /// [`CycleEngine::run_prepared_with`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::MalformedSchedule`] if a run exceeds
    /// the cycle watchdog and [`AlgorithmError::PayloadTooLarge`] if an
    /// event's byte count overflows `u64`; payloads after the failing
    /// one are not attempted.
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

    /// Executes a prepared schedule under a [`FaultPlan`] at flit
    /// granularity: links die, flap or degrade and hosts crash at the
    /// planned times while the schedule runs. Unlike the healthy entry
    /// points, an incomplete run is not an error — when no flit moves
    /// for the plan's detection window the NI watchdog converts the
    /// would-be hang into a stalled [`FaultReport`]. Where the
    /// flow engine black-holes traffic routed over dead links, the
    /// cycle engine models the wedge faithfully: flits back up in
    /// front of the dead link until progress stops (so `lost_events`
    /// is always empty here — undelivered messages are accounted by
    /// `delivered`/`first_undelivered_step`).
    ///
    /// An empty plan reproduces [`CycleEngine::run_prepared_with`]
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
    /// Returns [`AlgorithmError::PayloadTooLarge`] if an event's byte
    /// count overflows `u64`.
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
        let (report, core, fr) =
            self.run_core::<O, true>(prep, total_bytes, scratch, obs, &faults, &fault_times)?;
        Ok(FaultedRun {
            report: EngineReport {
                sim: report,
                detail: EngineDetail::Cycle {
                    cycles: core.cycles,
                    max_buffer_occupancy: core.max_buffer,
                },
            },
            faults: fr.expect("faulted runs always produce a fault report"),
        })
    }

}

impl Engine for CycleEngine {
    fn run(
        &self,
        topo: &Topology,
        schedule: &CommSchedule,
        total_bytes: u64,
    ) -> Result<SimReport, AlgorithmError> {
        let prep = PreparedSchedule::new(schedule, topo)?;
        let mut scratch = SimScratch::new();
        Ok(self
            .run_core::<_, false>(
                &prep,
                total_bytes,
                &mut scratch,
                &mut NoopObserver,
                &NO_FAULTS,
                &[],
            )?
            .0)
    }
}

/// Timing and occupancy facts the core loop produces besides the report.
struct CoreStats {
    max_buffer: usize,
    cycles: u64,
}

impl CycleEngine {
    /// The shared simulation core: sets up scratch state, runs the
    /// event-driven cycle loop, and builds the report. Per-link flit
    /// counts stay in `scratch.cycle.tx_count` for the caller.
    ///
    /// `F` monomorphizes fault injection: when off, every fault query
    /// compiles out (`faults` must be [`NO_FAULTS`] and `fault_times`
    /// empty) and the loop is the healthy engine bit for bit; when on,
    /// link/node fault gates and the progress watchdog are live and the
    /// third return value carries the [`FaultReport`].
    fn run_core<O: SimObserver, const F: bool>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        obs: &mut O,
        faults: &CompiledFaults,
        fault_times: &[f64],
    ) -> Result<(SimReport, CoreStats, Option<FaultReport>), AlgorithmError> {
        self.cfg.validate()?;
        let topo = prep.topology();
        let schedule = prep.schedule();
        let cfg = &self.cfg;
        let n = prep.num_events();
        let segs = schedule.total_segments();
        let nv = topo.num_vertices();
        let nn = topo.num_nodes();
        let nl = topo.num_links();
        let vcs = cfg.num_vcs as usize;
        let num_steps = schedule.num_steps();

        // split the scratch into its independently-borrowed parts
        let s = &mut scratch.cycle;
        let remaining_deps = &mut scratch.remaining_deps;

        // --- messages & injection streams, each framed once at this
        // payload; the lockstep estimator reads the flit counts back
        s.msgs.clear();
        s.streams.clear();
        let mut flits_sent = 0u64;
        let mut head_flits = 0u64;
        let mut flit_hops = 0u64;
        let mut head_flit_hops = 0u64;
        for i in 0..n {
            let bytes = prep
                .chunk(i)
                .checked_bytes(total_bytes, segs)
                .ok_or(AlgorithmError::PayloadTooLarge { total_bytes })?;
            let framing = frame_message(bytes, cfg);
            let hops = prep.hops(i);
            assert!(hops >= 1, "events always cross at least one link");
            let total = framing.total_flits();
            flits_sent += total;
            head_flits += framing.head_flits;
            flit_hops += total * hops as u64;
            head_flit_hops += framing.head_flits * hops as u64;
            let vc_base = ((prep.flow(i).0 % (vcs / 2).max(1)) * 2) as u8;
            s.msgs.push(Msg {
                total_flits: total,
                ejected_flits: 0,
            });
            s.streams
                .push(InjStream::new(i as u32, hops as u16, &framing, cfg, vc_base));
        }

        dateline_links_into(topo, &mut s.dateline);
        s.link_dst.clear();
        s.link_dst
            .extend(topo.links().iter().map(|l| topo.vertex_index(l.dst) as u32));

        // --- NI schedule tables: per node, events ordered by (step, id),
        // flattened into CSR rows with per-node issue cursors
        reset_to(&mut s.ni_offsets, nn + 1, 0);
        for i in 0..n {
            s.ni_offsets[prep.src_index(i) + 1] += 1;
        }
        for node in 0..nn {
            s.ni_offsets[node + 1] += s.ni_offsets[node];
        }
        s.ni_cursor.clear();
        s.ni_cursor.extend_from_slice(&s.ni_offsets[..nn]);
        reset_to(&mut s.ni_order, n, 0);
        for i in 0..n {
            let c = &mut s.ni_cursor[prep.src_index(i)];
            s.ni_order[*c as usize] = i as u32;
            *c += 1;
        }
        for node in 0..nn {
            let row =
                &mut s.ni_order[s.ni_offsets[node] as usize..s.ni_offsets[node + 1] as usize];
            row.sort_unstable_by_key(|&i| (prep.step(i as usize), i));
        }
        s.ni_cursor.clear();
        s.ni_cursor.extend_from_slice(&s.ni_offsets[..nn]);

        // lockstep step estimates (in cycles): flits of the step's largest
        // chunk, less the NI buffer when it does not fit (footnote 4).
        // Deliberately rate- and degrade-blind: slow or degraded links
        // stretch a step through the router's integer pacing gap
        // (`ceil(slowdown x degrade)` cycles per flit), which delays the
        // *actual* issue times the NI counts work against — folding the
        // same factor into the estimate would double-charge it. The
        // lockstep-on composition test in tests/heterogeneous_fabrics.rs
        // pins this: rate x degrade stays bit-identical however the 6x
        // slowdown is split.
        reset_to(&mut s.step_est, num_steps as usize + 2, 0);
        if let (true, Some(interval)) = (cfg.lockstep, cfg.lockstep_interval_ns) {
            let cycles = (interval / cfg.cycle_ns()).round() as u64;
            s.step_est.iter_mut().skip(1).for_each(|e| *e = cycles);
        } else if cfg.lockstep {
            for (i, msg) in s.msgs.iter().enumerate() {
                let flits = msg.total_flits;
                let eff = if flits <= u64::from(cfg.vc_buffer_flits) {
                    flits
                } else {
                    flits - u64::from(cfg.vc_buffer_flits)
                };
                let st = prep.step(i) as usize;
                s.step_est[st] = s.step_est[st].max(eff);
            }
        }

        s.nics.clear();
        reset_to(&mut s.ni_active, nn.div_ceil(64), 0);
        s.ni_timers.clear();
        reset_to(&mut s.ni_timer_at, nn, u64::MAX);
        for node in 0..nn {
            let row = &s.ni_order[s.ni_offsets[node] as usize..s.ni_offsets[node + 1] as usize];
            let unissued = row
                .iter()
                .filter(|&&i| prep.step(i as usize) == 1)
                .count() as u32;
            s.nics.push(Nic {
                cur_step: 1,
                step_start: 0,
                unissued_in_step: unissued,
                work_done: 0,
            });
            if !row.is_empty() {
                bit_set(&mut s.ni_active, node);
            }
        }
        // every NI with work is visited in the first cycle
        s.ni_wake.clear();
        s.ni_wake.extend_from_slice(&s.ni_active);

        // --- network state
        let raw_latency = cfg.link_latency_cycles() + u64::from(cfg.router_pipeline_cycles);
        let delay = raw_latency.max(1);
        let wheel = delay + 1;
        reset_queues(&mut s.buffers, nl * vcs);
        reset_to(&mut s.front_info, nl * vcs, FrontInfo::default());
        reset_to(&mut s.eject_mask, nl, 0);
        reset_to(&mut s.eject_ready, nv, 0);
        reset_to(&mut s.cand_count, nl, 0);
        reset_to(&mut s.credits, nl * vcs, cfg.vc_buffer_flits);
        reset_lists(&mut s.cal_flits, wheel as usize);
        reset_lists(&mut s.cal_credits, wheel as usize);
        reset_to(&mut s.locks, nl, None);
        reset_to(&mut s.rr, nl, 0);
        reset_to(&mut s.tx_count, nl, 0);
        reset_queues(&mut s.inject_q, nl);
        reset_to(&mut s.inject_count, nn, 0);
        reset_to(&mut s.vertex_work, nv, 0);
        reset_to(&mut s.active_vertices, nv.div_ceil(64), 0);
        reset_to(&mut s.input_used, nl.div_ceil(64), 0);
        s.newly_delivered.clear();

        // dependency tracking (count-down per event)
        remaining_deps.clear();
        remaining_deps.extend((0..n).map(|i| prep.indegree(i)));

        if O::ENABLED {
            obs.on_run_start(&RunInfo {
                engine: ObservedEngine::Cycle,
                cfg,
                prep,
                total_bytes,
            });
            if F {
                for (idx, &at_ns) in fault_times.iter().enumerate() {
                    obs.on_fault_injected(at_ns, idx as u32);
                }
            }
        }

        // watchdog window in cycles (faulted runs only): no flit
        // movement for this long declares the run stalled
        let window_cycles = if F {
            ((faults.detect_window_ns() / cfg.cycle_ns()).ceil() as u64).max(1)
        } else {
            0
        };

        // Static per-link rates: a link at rate num/den carries one flit
        // every ceil(den/num) cycles instead of one per cycle, through
        // the same pacing state the fault degrades use. Uniform
        // topologies skip the whole machinery.
        let uniform = topo.is_uniform();
        let mut sim = Sim::<O, F> {
            topo,
            cfg,
            prep,
            s,
            obs,
            faults,
            link_next_free: if F || !uniform { vec![0; nl] } else { Vec::new() },
            paced: !uniform,
            rate_slow: if uniform {
                Vec::new()
            } else {
                topo.links()
                    .iter()
                    .map(|l| f64::from(l.rate_den) / f64::from(l.rate_num))
                    .collect()
            },
            last_progress: 0,
            clock: 0,
            delay,
            wheel,
            send_slot: 0,
            cycle_ns: cfg.cycle_ns(),
            buffered: 0,
            injecting: 0,
            inflight_flits: 0,
            inflight_credits: 0,
            max_buffer: 0,
        };

        let mut delivered_count = 0usize;
        let mut completion_cycle = 0u64;
        let mut stalled = false;
        // calendar slot of the current cycle, `clock % wheel`, stepped
        // without a division per cycle
        let ring = wheel as usize;
        let mut slot = 0usize;

        while delivered_count < n {
            if sim.clock > self.max_cycles {
                return Err(AlgorithmError::MalformedSchedule {
                    detail: format!(
                        "cycle simulation exceeded {} cycles with {}/{} messages delivered",
                        self.max_cycles, delivered_count, n
                    ),
                });
            }
            // NI watchdog: flits are pending but none has moved for a
            // whole detection window — the network is wedged (dead link
            // or dead node blocking the route). Quiescent lockstep
            // waits (no buffered/injecting work) are legitimate and
            // exempt.
            if F
                && (sim.buffered > 0 || sim.injecting > 0)
                && sim.clock > sim.last_progress + window_cycles
            {
                stalled = true;
                break;
            }
            let now = sim.clock;
            // (now + delay) % wheel, as wheel = delay + 1
            sim.send_slot = if slot == 0 { ring - 1 } else { slot - 1 };
            // the crossbar's per-cycle input claims and the delivery list
            // reset before the arrivals: a flit ejected on arrival
            // already claims its input link and may finish its message
            sim.s.input_used.iter_mut().for_each(|w| *w = 0);
            sim.s.newly_delivered.clear();

            // 1. credit arrivals (this cycle's calendar slot)
            let mut credit_list = std::mem::take(&mut sim.s.cal_credits[slot]);
            sim.inflight_credits -= credit_list.len() as u64;
            for &(l, vc) in &credit_list {
                sim.s.credits[l as usize * vcs + vc as usize] += 1;
            }
            credit_list.clear();
            sim.s.cal_credits[slot] = credit_list;

            // 2. link arrivals: ejected on the spot when the router stage
            // would eject them this cycle anyway, else into input buffers
            let mut flit_list = std::mem::take(&mut sim.s.cal_flits[slot]);
            sim.inflight_flits -= flit_list.len() as u64;
            for &(l, flit) in &flit_list {
                if !O::ENABLED && sim.eject_on_arrival(l, flit) {
                    continue;
                }
                sim.buffered += 1;
                let idx = l as usize * vcs + flit.vc as usize;
                let new_len = sim.buf_push(idx, flit);
                if new_len == 1 {
                    let fi = sim.front_info_of(&flit);
                    sim.set_front(l as usize, flit.vc, fi);
                }
                if O::ENABLED {
                    sim.obs.on_buffer_level(now, l, flit.vc, new_len);
                }
                sim.max_buffer = sim.max_buffer.max(new_len as usize);
                let dst = sim.s.link_dst[l as usize] as usize;
                sim.s.vertex_work[dst] += 1;
                bit_set(&mut sim.s.active_vertices, dst);
            }
            flit_list.clear();
            sim.s.cal_flits[slot] = flit_list;

            // 3. NI issue: in-order from the schedule table, gated by
            // dependencies and the lockstep timestep counter. Only NIs
            // that can act are visited: those whose boundary timer is
            // due, and those woken for this cycle (a dependency cleared,
            // or they issued with their step boundary already past).
            while let Some(&Reverse((at, node))) = sim.s.ni_timers.peek() {
                if at > now {
                    break;
                }
                sim.s.ni_timers.pop();
                sim.s.ni_timer_at[node as usize] = u64::MAX;
                bit_set(&mut sim.s.ni_wake, node as usize);
            }
            for w in 0..sim.s.ni_wake.len() {
                // a visit only ever re-wakes its own node, for the next
                // cycle, so taking the word leaves this cycle's set intact
                let mut bits = std::mem::take(&mut sim.s.ni_wake[w]);
                while bits != 0 {
                    let node = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // a crashed host's NI issues nothing further (its
                    // unissued events simply never enter the network);
                    // crashes are permanent, so it is never woken again
                    if F && sim.faults.node_dead(node as u32, now as f64 * sim.cycle_ns) {
                        continue;
                    }
                    let end = sim.s.ni_offsets[node + 1];
                    // advance the timestep counter
                    loop {
                        let nic = sim.s.nics[node];
                        if nic.cur_step > num_steps {
                            break;
                        }
                        if nic.unissued_in_step == 0 && now >= sim.step_boundary(nic) {
                            let next = nic.cur_step + 1;
                            // remaining row entries are (step, id)-sorted,
                            // so the next step's events sit in a prefix
                            let unissued = sim.s.ni_order
                                [sim.s.ni_cursor[node] as usize..end as usize]
                                .iter()
                                .take_while(|&&i| prep.step(i as usize) <= next)
                                .filter(|&&i| prep.step(i as usize) == next)
                                .count() as u32;
                            if O::ENABLED {
                                // injection-side lockstep stall: time from
                                // the step's last issue (or start) to this
                                // boundary crossing
                                let stall = if cfg.lockstep {
                                    now.saturating_sub(nic.step_start.max(nic.work_done))
                                } else {
                                    0
                                };
                                sim.obs
                                    .on_step_advance(now, node as u32, nic.cur_step, stall);
                            }
                            let nic = &mut sim.s.nics[node];
                            nic.cur_step = next;
                            nic.step_start = now;
                            nic.unissued_in_step = unissued;
                            if O::ENABLED && unissued == 0 {
                                nic.work_done = now;
                            }
                        } else {
                            break;
                        }
                    }
                    // issue head-of-table events whose deps are clear
                    while sim.s.ni_cursor[node] < end {
                        let i = sim.s.ni_order[sim.s.ni_cursor[node] as usize] as usize;
                        if prep.step(i) > sim.s.nics[node].cur_step || remaining_deps[i] > 0 {
                            break;
                        }
                        sim.s.ni_cursor[node] += 1;
                        sim.s.nics[node].unissued_in_step =
                            sim.s.nics[node].unissued_in_step.saturating_sub(1);
                        if O::ENABLED {
                            if sim.s.nics[node].unissued_in_step == 0 {
                                sim.s.nics[node].work_done = now;
                            }
                            sim.obs.on_event_issued(now, i as u32, node as u32);
                        }
                        if F {
                            // an NI handing work to the network counts as
                            // progress for the stall watchdog
                            sim.last_progress = now;
                        }
                        let stream = sim.s.streams[i];
                        let first = prep.first_link(i);
                        sim.s.inject_q[first.index()].push_back(stream);
                        sim.s.inject_count[node] += 1;
                        sim.injecting += 1;
                        // node vertex indices coincide with node indices
                        sim.s.vertex_work[node] += 1;
                        bit_set(&mut sim.s.active_vertices, node);
                    }
                    if sim.s.ni_cursor[node] == end {
                        bit_clear(&mut sim.s.ni_active, node);
                        continue;
                    }
                    // schedule the next visit. An NI still owing events of
                    // its step waits for a dependency to clear (step 5
                    // wakes it); one done with its step waits for the
                    // boundary, which may already be past if it issued
                    // its last event just now.
                    let nic = sim.s.nics[node];
                    if nic.unissued_in_step == 0 && nic.cur_step <= num_steps {
                        let boundary = sim.step_boundary(nic);
                        if boundary <= now {
                            bit_set(&mut sim.s.ni_wake, node);
                        } else if sim.s.ni_timer_at[node] != boundary {
                            sim.s.ni_timer_at[node] = boundary;
                            sim.s.ni_timers.push(Reverse((boundary, node as u32)));
                        }
                    }
                }
            }

            // 4. routers: ejection + output arbitration over the
            // active-vertex worklist
            sim.router_stage(vcs);

            // 5. completions clear dependencies, waking the NIs whose
            // events become ready
            for k in 0..sim.s.newly_delivered.len() {
                let m = sim.s.newly_delivered[k] as usize;
                completion_cycle = completion_cycle.max(now);
                delivered_count += 1;
                for dep_idx in prep.dependents(m) {
                    let deps = &mut remaining_deps[dep_idx as usize];
                    *deps -= 1;
                    if *deps == 0 {
                        bit_set(&mut sim.s.ni_wake, prep.src_index(dep_idx as usize));
                    }
                }
            }

            // 6. advance the clock; when nothing can act next cycle, jump
            // straight to the next arrival front or lockstep boundary
            if sim.buffered == 0 && sim.injecting == 0 && sim.s.newly_delivered.is_empty() {
                let mut wake = u64::MAX;
                let mut sl = slot;
                for d in 1..=sim.delay {
                    sl = if sl + 1 == ring { 0 } else { sl + 1 };
                    if !sim.s.cal_flits[sl].is_empty() || !sim.s.cal_credits[sl].is_empty() {
                        wake = now + d;
                        break;
                    }
                }
                if cfg.lockstep {
                    // a quiescent NI can still cross a step boundary at
                    // step_start + est, re-enabling issue
                    for w in 0..sim.s.ni_active.len() {
                        let mut bits = sim.s.ni_active[w];
                        while bits != 0 {
                            let node = (w << 6) | bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            // dead NIs never issue again: no wake from them
                            if F && sim.faults.node_dead(node as u32, now as f64 * sim.cycle_ns) {
                                continue;
                            }
                            let nic = sim.s.nics[node];
                            if nic.unissued_in_step == 0 && nic.cur_step <= num_steps {
                                let est = sim.s.step_est[nic.cur_step as usize];
                                if est > 0 {
                                    wake = wake.min(nic.step_start + est);
                                }
                            }
                        }
                    }
                }
                debug_assert!(wake > now, "wake target must be in the future");
                if wake == u64::MAX {
                    if F {
                        // nothing in flight and nothing can ever issue
                        // (e.g. the only remaining sources crashed):
                        // stall immediately rather than spinning out
                        // the detection window on an empty network
                        stalled = true;
                        break;
                    }
                    // no wake source at all = true deadlock; land beyond
                    // the watchdog so the error matches the dense engine's
                    sim.clock = self.max_cycles + 1;
                } else {
                    sim.clock = wake;
                    slot = (wake % sim.wheel) as usize;
                    if F {
                        // an idle network is waiting by design (wire
                        // latency or a lockstep boundary), not wedged:
                        // the watchdog timer does not run while idle
                        sim.last_progress = wake;
                    }
                }
            } else {
                sim.clock = now + 1;
                slot = if slot + 1 == ring { 0 } else { slot + 1 };
            }
        }

        if !stalled {
            // End-state invariants: every flit that entered the network
            // was consumed — no stranded buffers, wires or injection
            // streams. (A stalled faulted run wedges by design, so the
            // conservation laws intentionally do not hold there.)
            assert_eq!(sim.buffered, 0, "flits stranded in input buffers after completion");
            assert_eq!(sim.inflight_flits, 0, "flits stranded on links after completion");
            assert_eq!(sim.injecting, 0, "messages stranded at injection after completion");
            let ejected: u64 = sim.s.msgs.iter().map(|m| m.ejected_flits).sum();
            assert_eq!(ejected, flits_sent, "flit conservation violated");
        }

        let mut completion_ns = completion_cycle as f64 * cfg.cycle_ns();
        let fault_report = if F {
            let mut first: Option<(u32, usize)> = None; // (step, event)
            if stalled {
                for (i, m) in sim.s.msgs.iter().enumerate() {
                    if m.ejected_flits < m.total_flits {
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
                // the watchdog fires one detection window after the last
                // flit moved; that firing time is the run's end
                let fired_at =
                    sim.last_progress as f64 * cfg.cycle_ns() + faults.detect_window_ns();
                completion_ns = completion_ns.max(fired_at);
                if O::ENABLED {
                    let (step, event) = first.expect("a stalled run has an undelivered event");
                    sim.obs
                        .on_timeout_fired(fired_at, prep.src_index(event) as u32, step);
                }
            }
            Some(FaultReport {
                delivered: delivered_count,
                total: n,
                // the cycle engine wedges traffic in front of dead links
                // instead of black-holing it; nothing is "lost"
                lost_events: Vec::new(),
                first_undelivered_step: first.map(|(s, _)| s),
                last_progress_ns: sim.last_progress as f64 * cfg.cycle_ns(),
                stalled,
                detect_window_ns: faults.detect_window_ns(),
            })
        } else {
            None
        };

        let report = SimReport {
            total_bytes,
            completion_ns,
            flits_sent,
            head_flits,
            messages: n,
            flit_hops,
            head_flit_hops,
            links_used: sim.s.tx_count.iter().filter(|&&c| c > 0).count(),
            total_links: nl,
            busy_ns: sim.s.tx_count.iter().sum::<u64>() as f64 * cfg.cycle_ns(),
        };
        if O::ENABLED {
            sim.obs.on_run_end(report.completion_ns);
        }
        let cycles = sim.clock;
        let max_buffer = sim.max_buffer;
        Ok((
            report,
            CoreStats {
                max_buffer,
                cycles,
            },
            fault_report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowEngine;
    use multitree::algorithms::{AllReduce, DbTree, MultiTree, Ring};

    fn run_cycle(topo: &Topology, algo: &dyn AllReduce, bytes: u64, cfg: NetworkConfig) -> SimReport {
        let s = algo.build(topo).unwrap();
        CycleEngine::new(cfg).run(topo, &s, bytes).unwrap()
    }

    #[test]
    fn single_hop_message_latency() {
        // 2-node ring all-reduce of 2 KiB: 2 chunks of 1 KiB = 65 flits
        // (4 packets + 64 data), each direction simultaneously, two steps.
        let topo = Topology::torus(1, 2);
        let mut cfg = NetworkConfig::paper_default();
        cfg.lockstep = false;
        let r = run_cycle(&topo, &Ring, 2048, cfg);
        // one step ~ latency (152) + 68 flits; two steps ~ 2x
        assert!(r.completion_ns > 300.0 && r.completion_ns < 600.0, "{r:?}");
        assert_eq!(r.messages, 4);
    }

    #[test]
    fn cycle_and_flow_agree_on_contention_free_schedules() {
        let topo = Topology::torus(4, 4);
        let cfg = NetworkConfig::paper_default();
        for bytes in [64 * 1024u64, 512 * 1024] {
            for algo in [&MultiTree::default() as &dyn AllReduce, &Ring] {
                let s = algo.build(&topo).unwrap();
                let c = CycleEngine::new(cfg).run(&topo, &s, bytes).unwrap();
                let f = FlowEngine::new(cfg).run(&topo, &s, bytes).unwrap();
                let ratio = c.completion_ns / f.completion_ns;
                assert!(
                    (0.8..1.35).contains(&ratio),
                    "{} {bytes}B: cycle {} vs flow {} (ratio {ratio})",
                    s.algorithm(),
                    c.completion_ns,
                    f.completion_ns
                );
            }
        }
    }

    #[test]
    fn dbtree_contention_shows_up_in_cycle_sim() {
        let topo = Topology::torus(4, 4);
        let cfg = NetworkConfig::paper_default();
        let bytes = 256 * 1024;
        let db = run_cycle(&topo, &DbTree::default(), bytes, cfg);
        let mt = run_cycle(&topo, &MultiTree::default(), bytes, cfg);
        assert!(
            db.completion_ns > mt.completion_ns,
            "dbtree {} !> multitree {}",
            db.completion_ns,
            mt.completion_ns
        );
    }

    #[test]
    fn message_based_flow_control_is_faster() {
        let topo = Topology::torus(4, 4);
        let bytes = 256 * 1024;
        let pkt = run_cycle(&topo, &MultiTree::default(), bytes, NetworkConfig::paper_default());
        let msg = run_cycle(
            &topo,
            &MultiTree::default(),
            bytes,
            NetworkConfig::paper_message_based(),
        );
        assert!(msg.completion_ns < pkt.completion_ns);
        assert!(msg.head_flits < pkt.head_flits / 10);
    }

    #[test]
    fn deterministic() {
        let topo = Topology::torus(2, 2);
        let s = MultiTree::default().build(&topo).unwrap();
        let e = CycleEngine::new(NetworkConfig::paper_default());
        let a = e.run(&topo, &s, 64 * 1024).unwrap();
        let b = e.run(&topo, &s, 64 * 1024).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn indirect_network_runs() {
        let topo = Topology::dgx2_like_16();
        let cfg = NetworkConfig::paper_default();
        let r = run_cycle(&topo, &MultiTree::default(), 64 * 1024, cfg);
        assert!(r.completion_ns > 0.0);
    }

    #[test]
    fn watchdog_reports_deadlock_instead_of_hanging() {
        let topo = Topology::torus(4, 4);
        let s = Ring.build(&topo).unwrap();
        let err = CycleEngine::new(NetworkConfig::paper_default())
            .with_max_cycles(10)
            .run(&topo, &s, 1 << 20)
            .unwrap_err();
        assert!(err.to_string().contains("exceeded"));
    }

    #[test]
    fn empty_schedule_completes_instantly() {
        let topo = Topology::torus(2, 2);
        let s = CommSchedule::new("empty", 4, 4);
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut scratch = SimScratch::new();
        let r = CycleEngine::new(NetworkConfig::paper_default())
            .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        assert_eq!(r.sim.completion_ns, 0.0);
        assert_eq!(r.sim.flits_sent, 0);
        match r.detail {
            EngineDetail::Cycle { cycles, .. } => assert_eq!(cycles, 0),
            _ => panic!("cycle engine must report the cycle detail"),
        }
        assert_eq!(scratch.cycle.tx_count, vec![0; topo.num_links()]);
    }

    #[test]
    fn steady_state_reuses_scratch_capacity() {
        // after a warm-up run, repeated runs at the same payload size must
        // not grow any scratch buffer: the NoopObserver simulation loop
        // and per-run setup are allocation-free once capacities are
        // established
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let engine = CycleEngine::new(NetworkConfig::paper_default());
        let mut scratch = SimScratch::new();
        engine
            .run_prepared_with(&prep, 256 << 10, &mut scratch, &mut NoopObserver)
            .unwrap();
        let warm = scratch.cycle.capacity_elements();
        for _ in 0..3 {
            engine
                .run_prepared_with(&prep, 256 << 10, &mut scratch, &mut NoopObserver)
                .unwrap();
            assert_eq!(
                scratch.cycle.capacity_elements(),
                warm,
                "scratch capacity grew across identical runs"
            );
        }
    }
}


#[cfg(test)]
mod stats_tests {
    use super::*;
    use multitree::algorithms::{AllReduce, MultiTree, Ring};

    #[test]
    fn detailed_stats_match_report() {
        let topo = Topology::torus(4, 4);
        let cfg = NetworkConfig::paper_default();
        let s = MultiTree::default().build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut scratch = SimScratch::new();
        let mut tl = crate::telemetry::LinkTimeline::new(1_000.0);
        let report = CycleEngine::new(cfg)
            .run_prepared_with(&prep, 64 << 10, &mut scratch, &mut tl)
            .unwrap();
        let link_flits = tl.link_flits();
        assert_eq!(
            link_flits.iter().filter(|&&c| c > 0).count(),
            report.sim.links_used
        );
        assert_eq!(link_flits.iter().sum::<u64>() as f64, report.sim.busy_ns);
        match report.detail {
            EngineDetail::Cycle {
                cycles,
                max_buffer_occupancy,
            } => {
                assert!(cycles > 0);
                // the credit protocol bounds any (input, VC) buffer by its
                // configured depth: a flit is only transmitted after taking
                // a credit, and credits are only returned as flits drain
                assert!(max_buffer_occupancy <= cfg.vc_buffer_flits as usize);
                assert!(max_buffer_occupancy > 0);
            }
            _ => panic!("cycle engine must report the cycle detail"),
        }
    }

    /// max/mean flits among used links, like [`CycleStats::load_imbalance`]
    /// but over an observer's per-link counts.
    fn imbalance(link_flits: &[u64]) -> f64 {
        let used: Vec<u64> = link_flits.iter().copied().filter(|&c| c > 0).collect();
        let max = *used.iter().max().expect("some link carried traffic") as f64;
        let mean = used.iter().sum::<u64>() as f64 / used.len() as f64;
        max / mean
    }

    fn observed_link_flits(s: &CommSchedule, topo: &Topology) -> Vec<u64> {
        let prep = PreparedSchedule::new(s, topo).unwrap();
        let mut scratch = SimScratch::new();
        let mut tl = crate::telemetry::LinkTimeline::new(1_000.0);
        CycleEngine::new(NetworkConfig::paper_default())
            .run_prepared_with(&prep, 64 << 10, &mut scratch, &mut tl)
            .unwrap();
        tl.link_flits().to_vec()
    }

    #[test]
    fn ring_load_is_balanced_but_narrow() {
        let topo = Topology::torus(4, 4);
        let s = Ring.build(&topo).unwrap();
        let flits = observed_link_flits(&s, &topo);
        // snake ring: exactly one out-link per node used, all equally
        assert_eq!(flits.iter().filter(|&&c| c > 0).count(), 16);
        assert!((imbalance(&flits) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multitree_spreads_load_across_all_links() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let flits = observed_link_flits(&s, &topo);
        assert_eq!(flits.iter().filter(|&&c| c > 0).count(), 64);
        // trees are balanced: no link carries more than ~2x the mean
        assert!(imbalance(&flits) < 2.0, "{}", imbalance(&flits));
    }
}
