//! The dense reference cycle engine: the original, straightforward
//! implementation that scans every link and vertex every cycle and
//! allocates per run.
//!
//! It exists purely as a **differential-testing oracle** for the
//! event-driven engine in the parent module: the old-vs-new equivalence
//! suite in `tests/prepared_equivalence.rs` asserts bit-identical
//! [`SimReport`]s and [`CycleStats`] across algorithms, topologies and
//! flow-control modes, and the Criterion benchmark uses it as the
//! "before" baseline. It is *not* part of the public simulation API and
//! takes no scratch: simplicity and obviousness over speed.

use super::flit::{Flit, Kind};
use super::{dateline_links, CycleEngine, CycleStats};
use crate::config::{FlowControlMode, NetworkConfig};
use crate::flowctrl::frame_message;
use crate::report::SimReport;
use multitree::{AlgorithmError, CommSchedule, PreparedSchedule};
use mt_topology::{LinkId, Topology, Vertex};
use std::collections::VecDeque;

struct RefMsg {
    event: usize,
    path: Vec<LinkId>,
    total_flits: u64,
    ejected_flits: u64,
    vc_base: u8,
}

struct RefStream {
    msg: u32,
    packets: VecDeque<u32>,
    sent_in_packet: u32,
}

impl RefStream {
    fn peek(&self, msgs: &[RefMsg]) -> Option<Flit> {
        let &pkt_len = self.packets.front()?;
        let m = &msgs[self.msg as usize];
        let kind = if pkt_len == 1 {
            Kind::HeadTail
        } else if self.sent_in_packet == 0 {
            Kind::Head
        } else if self.sent_in_packet + 1 == pkt_len {
            Kind::Tail
        } else {
            Kind::Body
        };
        Some(Flit {
            msg: self.msg,
            kind,
            route_pos: 0,
            hops: m.path.len() as u16,
            vc: m.vc_base,
            crossed_dateline: false,
            pkt_flits: pkt_len,
        })
    }

    fn advance(&mut self) {
        let pkt_len = *self.packets.front().expect("advance past end");
        self.sent_in_packet += 1;
        if self.sent_in_packet == pkt_len {
            self.packets.pop_front();
            self.sent_in_packet = 0;
        }
    }

    fn is_done(&self) -> bool {
        self.packets.is_empty()
    }
}

struct RefNic {
    pending: VecDeque<usize>,
    cur_step: u32,
    step_start: u64,
    unissued_in_step: u32,
}

#[derive(Debug, Clone, Copy)]
struct RefLock {
    from: RefSource,
    out_vc: u8,
    remaining: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefSource {
    Buffer { link: u32, vc: u8 },
    Injection,
}

struct RefSim<'a> {
    topo: &'a Topology,
    cfg: &'a NetworkConfig,
    buffers: Vec<VecDeque<Flit>>,
    credits: Vec<u32>,
    channels: Vec<VecDeque<(u64, Flit)>>,
    credit_channels: Vec<VecDeque<(u64, u8)>>,
    locks: Vec<Option<RefLock>>,
    rr: Vec<u32>,
    dateline: Vec<bool>,
    tx_count: Vec<u64>,
    msgs: Vec<RefMsg>,
    inject: Vec<VecDeque<RefStream>>,
    nics: Vec<RefNic>,
    clock: u64,
}

impl CycleEngine {
    /// Runs the **dense reference implementation** of the cycle engine —
    /// the original one-cycle-at-a-time, scan-everything simulator.
    /// Semantically identical to [`CycleEngine::run_prepared_with`] (the
    /// equivalence test suite enforces bit-equality of both the report
    /// and the statistics); dramatically slower on latency-dominated
    /// workloads. Use only for differential testing and benchmarking.
    ///
    /// # Errors
    ///
    /// Same as [`crate::Engine::run`].
    #[deprecated(
        since = "0.2.0",
        note = "not part of the observer-based simulation API; kept only as the \
                differential-testing oracle — annotate oracle call sites with \
                #[allow(deprecated)]"
    )]
    pub fn run_reference_detailed(
        &self,
        topo: &Topology,
        schedule: &CommSchedule,
        total_bytes: u64,
    ) -> Result<(SimReport, CycleStats), AlgorithmError> {
        self.config().validate()?;
        let prep = PreparedSchedule::new(schedule, topo)?;
        let cfg = self.config();
        let n = prep.num_events();
        if n == 0 {
            return Ok((
                SimReport {
                    total_bytes,
                    completion_ns: 0.0,
                    flits_sent: 0,
                    head_flits: 0,
                    messages: 0,
                    flit_hops: 0,
                    head_flit_hops: 0,
                    links_used: 0,
                    total_links: topo.num_links(),
                    busy_ns: 0.0,
                },
                CycleStats {
                    link_flits: vec![0; topo.num_links()],
                    max_buffer_occupancy: 0,
                    cycles: 0,
                },
            ));
        }
        let segs = schedule.total_segments();
        let nv = topo.num_vertices();
        let nl = topo.num_links();
        let vcs = cfg.num_vcs as usize;

        // --- messages & framing
        let mut msgs: Vec<RefMsg> = Vec::with_capacity(n);
        let mut inj_streams: Vec<Option<RefStream>> = Vec::with_capacity(n);
        let mut flits_sent = 0u64;
        let mut head_flits = 0u64;
        let mut flit_hops = 0u64;
        let mut head_flit_hops = 0u64;
        for (i, e) in schedule.events().enumerate() {
            let bytes = e.bytes(total_bytes, segs);
            let framing = frame_message(bytes, cfg);
            let path: Vec<_> = prep.path(i).collect();
            assert!(!path.is_empty(), "events always cross at least one link");
            let total = framing.total_flits();
            flits_sent += total;
            head_flits += framing.head_flits;
            flit_hops += total * path.len() as u64;
            head_flit_hops += framing.head_flits * path.len() as u64;
            let mut packets = VecDeque::new();
            match cfg.flow_control {
                FlowControlMode::PacketBased => {
                    let per_pkt_data = u64::from(cfg.payload_bytes) / u64::from(cfg.flit_bytes);
                    let mut data = framing.data_flits;
                    while data > 0 {
                        let take = data.min(per_pkt_data);
                        packets.push_back(take as u32 + 1); // + head
                        data -= take;
                    }
                }
                FlowControlMode::MessageBased => {
                    packets.push_back(framing.data_flits as u32 + 1);
                }
            }
            let vc_base = ((e.flow.0 % (vcs / 2).max(1)) * 2) as u8;
            msgs.push(RefMsg {
                event: i,
                path,
                total_flits: total,
                ejected_flits: 0,
                vc_base,
            });
            inj_streams.push(Some(RefStream {
                msg: i as u32,
                packets,
                sent_in_packet: 0,
            }));
        }

        let dateline = dateline_links(topo);

        // --- NI schedule tables: per node, events ordered by (step, id)
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); topo.num_nodes()];
        for (i, e) in schedule.events().enumerate() {
            per_node[e.src.index()].push(i);
        }
        for list in &mut per_node {
            list.sort_by_key(|&i| (prep.step(i), i));
        }
        // lockstep step estimates (in cycles)
        let mut step_est = vec![0u64; schedule.num_steps() as usize + 2];
        if let (true, Some(interval)) = (cfg.lockstep, cfg.lockstep_interval_ns) {
            let cycles = (interval / cfg.cycle_ns()).round() as u64;
            step_est.iter_mut().skip(1).for_each(|e| *e = cycles);
        } else if cfg.lockstep {
            for e in schedule.events() {
                let flits = frame_message(e.bytes(total_bytes, segs), cfg).total_flits();
                let eff = if flits <= u64::from(cfg.vc_buffer_flits) {
                    flits
                } else {
                    flits - u64::from(cfg.vc_buffer_flits)
                };
                let s = e.step as usize;
                step_est[s] = step_est[s].max(eff);
            }
        }

        let nics: Vec<RefNic> = per_node
            .iter()
            .map(|list| {
                let unissued = list.iter().filter(|&&i| prep.step(i) == 1).count() as u32;
                RefNic {
                    pending: list.iter().copied().collect(),
                    cur_step: 1,
                    step_start: 0,
                    unissued_in_step: unissued,
                }
            })
            .collect();

        let mut sim = RefSim {
            topo,
            cfg,
            buffers: vec![VecDeque::new(); nl * vcs],
            credits: vec![cfg.vc_buffer_flits; nl * vcs],
            channels: vec![VecDeque::new(); nl],
            credit_channels: vec![VecDeque::new(); nl],
            locks: vec![None; nl],
            rr: vec![0; nl],
            dateline,
            tx_count: vec![0; nl],
            msgs,
            inject: (0..topo.num_nodes()).map(|_| VecDeque::new()).collect(),
            nics,
            clock: 0,
        };

        let mut remaining_deps: Vec<u32> = (0..n).map(|i| prep.indegree(i)).collect();
        let mut delivered_count = 0usize;
        let mut inj_opt = inj_streams;

        let latency = cfg.link_latency_cycles() + u64::from(cfg.router_pipeline_cycles);
        let mut completion_cycle = 0u64;
        let mut max_buffer = 0usize;

        while delivered_count < n {
            if sim.clock > self.max_cycles {
                return Err(AlgorithmError::MalformedSchedule {
                    detail: format!(
                        "cycle simulation exceeded {} cycles with {}/{} messages delivered",
                        self.max_cycles,
                        delivered_count,
                        n
                    ),
                });
            }
            let now = sim.clock;

            // 1. credit arrivals
            for l in 0..nl {
                while let Some(&(t, vc)) = sim.credit_channels[l].front() {
                    if t > now {
                        break;
                    }
                    sim.credit_channels[l].pop_front();
                    sim.credits[l * vcs + vc as usize] += 1;
                }
            }

            // 2. link arrivals -> input buffers
            for l in 0..nl {
                while let Some(&(t, flit)) = sim.channels[l].front() {
                    if t > now {
                        break;
                    }
                    sim.channels[l].pop_front();
                    let idx = l * vcs + flit.vc as usize;
                    sim.buffers[idx].push_back(flit);
                    max_buffer = max_buffer.max(sim.buffers[idx].len());
                }
            }

            // 3. NI issue
            for node in 0..topo.num_nodes() {
                loop {
                    let cur = sim.nics[node].cur_step;
                    if cur > schedule.num_steps() {
                        break;
                    }
                    let est = if cfg.lockstep {
                        step_est[cur as usize]
                    } else {
                        0
                    };
                    if sim.nics[node].unissued_in_step == 0
                        && now >= sim.nics[node].step_start + est
                    {
                        let next = cur + 1;
                        let unissued = sim.nics[node]
                            .pending
                            .iter()
                            .filter(|&&i| prep.step(i) == next)
                            .count() as u32;
                        let nic = &mut sim.nics[node];
                        nic.cur_step = next;
                        nic.step_start = now;
                        nic.unissued_in_step = unissued;
                    } else {
                        break;
                    }
                }
                while let Some(&i) = sim.nics[node].pending.front() {
                    if prep.step(i) > sim.nics[node].cur_step || remaining_deps[i] > 0 {
                        break;
                    }
                    sim.nics[node].pending.pop_front();
                    sim.nics[node].unissued_in_step =
                        sim.nics[node].unissued_in_step.saturating_sub(1);
                    let stream = inj_opt[i].take().expect("stream issued once");
                    sim.inject[node].push_back(stream);
                }
            }

            // 4. routers
            let mut newly_delivered: Vec<u32> = Vec::new();
            sim.router_stage(nv, vcs, latency, &mut newly_delivered);

            // 5. completions
            for m in newly_delivered {
                let msg = &sim.msgs[m as usize];
                completion_cycle = completion_cycle.max(now);
                delivered_count += 1;
                for dep_idx in prep.dependents(msg.event) {
                    remaining_deps[dep_idx as usize] -= 1;
                }
            }

            sim.clock += 1;
        }

        let report = SimReport {
            total_bytes,
            completion_ns: completion_cycle as f64 * cfg.cycle_ns(),
            flits_sent,
            head_flits,
            messages: n,
            flit_hops,
            head_flit_hops,
            links_used: sim.tx_count.iter().filter(|&&c| c > 0).count(),
            total_links: nl,
            busy_ns: sim.tx_count.iter().sum::<u64>() as f64 * cfg.cycle_ns(),
        };
        let stats = CycleStats {
            link_flits: sim.tx_count,
            max_buffer_occupancy: max_buffer,
            cycles: sim.clock,
        };
        Ok((report, stats))
    }
}

impl RefSim<'_> {
    fn router_stage(
        &mut self,
        nv: usize,
        vcs: usize,
        latency: u64,
        delivered: &mut Vec<u32>,
    ) {
        let mut input_used = vec![false; self.topo.num_links()];

        for v in 0..nv {
            let vertex = self.topo.vertex_at(v);

            // ejection
            for &in_link in self.topo.in_links(vertex) {
                if input_used[in_link.index()] {
                    continue;
                }
                for vc in 0..vcs {
                    let idx = in_link.index() * vcs + vc;
                    let eject = match self.buffers[idx].front() {
                        Some(f) => (f.route_pos as usize) == self.msgs[f.msg as usize].path.len(),
                        None => false,
                    };
                    if eject {
                        let flit = self.buffers[idx].pop_front().expect("checked non-empty");
                        self.return_credit(in_link, vc as u8, latency);
                        input_used[in_link.index()] = true;
                        let m = &mut self.msgs[flit.msg as usize];
                        m.ejected_flits += 1;
                        if m.ejected_flits == m.total_flits {
                            delivered.push(flit.msg);
                        }
                        break;
                    }
                }
            }

            // output arbitration
            for &out_link in self.topo.out_links(vertex) {
                if let Some(lock) = self.locks[out_link.index()] {
                    self.continue_stream(out_link, lock, &mut input_used, latency);
                } else {
                    self.allocate_stream(vertex, out_link, vcs, &mut input_used, latency);
                }
            }
        }
    }

    fn continue_stream(
        &mut self,
        out_link: LinkId,
        lock: RefLock,
        input_used: &mut [bool],
        latency: u64,
    ) {
        let vcs = self.cfg.num_vcs as usize;
        let out_idx = out_link.index() * vcs + lock.out_vc as usize;
        if self.credits[out_idx] == 0 {
            return;
        }
        match lock.from {
            RefSource::Buffer { link, vc } => {
                if input_used[link as usize] {
                    return;
                }
                let in_idx = link as usize * vcs + vc as usize;
                let Some(&flit) = self.buffers[in_idx].front() else {
                    return;
                };
                self.buffers[in_idx].pop_front();
                self.return_credit(LinkId::new(link as usize), vc, latency);
                input_used[link as usize] = true;
                self.transmit(out_link, flit, lock.out_vc, latency);
                self.step_lock(out_link, lock);
            }
            RefSource::Injection => {
                let node = self
                    .topo
                    .link(out_link)
                    .src
                    .as_node()
                    .expect("injection source is a node")
                    .index();
                let msgs = &self.msgs;
                let Some(pos) = self.inject[node]
                    .iter()
                    .position(|s| msgs[s.msg as usize].path[0] == out_link)
                else {
                    return;
                };
                let Some(mut flit) = self.inject[node][pos].peek(&self.msgs) else {
                    return;
                };
                self.inject[node][pos].advance();
                if self.inject[node][pos].is_done() {
                    self.inject[node].remove(pos);
                }
                flit.vc = lock.out_vc;
                flit.route_pos = 1;
                flit.crossed_dateline = self.dateline[out_link.index()];
                self.transmit_raw(out_link, flit, latency);
                self.consume_credit(out_link, lock.out_vc);
                self.step_lock(out_link, lock);
            }
        }
    }

    fn allocate_stream(
        &mut self,
        vertex: Vertex,
        out_link: LinkId,
        vcs: usize,
        input_used: &mut [bool],
        latency: u64,
    ) {
        let mut candidates: Vec<RefSource> = Vec::new();
        if let Some(node) = vertex.as_node() {
            if !self.inject[node.index()].is_empty() {
                candidates.push(RefSource::Injection);
            }
        }
        for &in_link in self.topo.in_links(vertex) {
            for vc in 0..vcs {
                candidates.push(RefSource::Buffer {
                    link: in_link.index() as u32,
                    vc: vc as u8,
                });
            }
        }
        if candidates.is_empty() {
            return;
        }
        let start = self.rr[out_link.index()] as usize % candidates.len();
        for k in 0..candidates.len() {
            let cand = candidates[(start + k) % candidates.len()];
            if self.try_start(cand, out_link, input_used, latency) {
                self.rr[out_link.index()] = ((start + k + 1) % candidates.len()) as u32;
                return;
            }
        }
    }

    fn try_start(
        &mut self,
        cand: RefSource,
        out_link: LinkId,
        input_used: &mut [bool],
        latency: u64,
    ) -> bool {
        let vcs = self.cfg.num_vcs as usize;
        match cand {
            RefSource::Buffer { link, vc } => {
                if input_used[link as usize] {
                    return false;
                }
                let in_idx = link as usize * vcs + vc as usize;
                let Some(&flit) = self.buffers[in_idx].front() else {
                    return false;
                };
                if !flit.kind.is_head() {
                    return false;
                }
                let m = &self.msgs[flit.msg as usize];
                if (flit.route_pos as usize) >= m.path.len()
                    || m.path[flit.route_pos as usize] != out_link
                {
                    return false;
                }
                let out_vc = self.output_vc(flit, out_link);
                if !self.credit_check(out_link, out_vc, flit.pkt_flits) {
                    return false;
                }
                let mut flit = self.buffers[in_idx].pop_front().expect("checked");
                self.return_credit(LinkId::new(link as usize), vc, latency);
                input_used[link as usize] = true;
                flit.crossed_dateline = flit.crossed_dateline || self.dateline[out_link.index()];
                flit.vc = out_vc;
                flit.route_pos += 1;
                let remaining = flit.pkt_flits - 1;
                self.transmit_raw(out_link, flit, latency);
                self.consume_credit(out_link, out_vc);
                if remaining > 0 {
                    self.locks[out_link.index()] = Some(RefLock {
                        from: RefSource::Buffer { link, vc },
                        out_vc,
                        remaining,
                    });
                }
                true
            }
            RefSource::Injection => {
                let node = self
                    .topo
                    .link(out_link)
                    .src
                    .as_node()
                    .expect("injection at a node")
                    .index();
                let msgs = &self.msgs;
                let Some(pos) = self.inject[node]
                    .iter()
                    .position(|s| msgs[s.msg as usize].path[0] == out_link)
                else {
                    return false;
                };
                let Some(flit) = self.inject[node][pos].peek(&self.msgs) else {
                    return false;
                };
                if !flit.kind.is_head() {
                    return false;
                }
                let out_vc = self.output_vc(flit, out_link);
                if !self.credit_check(out_link, out_vc, flit.pkt_flits) {
                    return false;
                }
                let mut flit = flit;
                self.inject[node][pos].advance();
                if self.inject[node][pos].is_done() {
                    self.inject[node].remove(pos);
                }
                flit.crossed_dateline = self.dateline[out_link.index()];
                flit.vc = out_vc;
                flit.route_pos = 1;
                let remaining = flit.pkt_flits - 1;
                self.transmit_raw(out_link, flit, latency);
                self.consume_credit(out_link, out_vc);
                if remaining > 0 {
                    self.locks[out_link.index()] = Some(RefLock {
                        from: RefSource::Injection,
                        out_vc,
                        remaining,
                    });
                }
                true
            }
        }
    }

    fn output_vc(&self, flit: Flit, out_link: LinkId) -> u8 {
        let crossed = flit.crossed_dateline || self.dateline[out_link.index()];
        let base = flit.vc & !1;
        base | u8::from(crossed)
    }

    fn credit_check(&self, out_link: LinkId, vc: u8, pkt_flits: u32) -> bool {
        let vcs = self.cfg.num_vcs as usize;
        let have = self.credits[out_link.index() * vcs + vc as usize];
        match self.cfg.flow_control {
            FlowControlMode::PacketBased => have >= pkt_flits.min(self.cfg.vc_buffer_flits),
            FlowControlMode::MessageBased => have >= 1,
        }
    }

    fn consume_credit(&mut self, link: LinkId, vc: u8) {
        let vcs = self.cfg.num_vcs as usize;
        let idx = link.index() * vcs + vc as usize;
        debug_assert!(self.credits[idx] > 0);
        self.credits[idx] -= 1;
    }

    fn return_credit(&mut self, link: LinkId, vc: u8, latency: u64) {
        self.credit_channels[link.index()].push_back((self.clock + latency, vc));
    }

    fn transmit(&mut self, out_link: LinkId, mut flit: Flit, out_vc: u8, latency: u64) {
        flit.vc = out_vc;
        flit.crossed_dateline = flit.crossed_dateline || self.dateline[out_link.index()];
        flit.route_pos += 1;
        self.transmit_raw(out_link, flit, latency);
        self.consume_credit(out_link, out_vc);
    }

    fn transmit_raw(&mut self, out_link: LinkId, flit: Flit, latency: u64) {
        self.tx_count[out_link.index()] += 1;
        self.channels[out_link.index()].push_back((self.clock + latency, flit));
    }

    fn step_lock(&mut self, out_link: LinkId, lock: RefLock) {
        let remaining = lock.remaining - 1;
        self.locks[out_link.index()] = if remaining == 0 {
            None
        } else {
            Some(RefLock { remaining, ..lock })
        };
    }
}
