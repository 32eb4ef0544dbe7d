//! Per-cycle router behaviour: ejection, output arbitration, credit
//! bookkeeping and flit transmission (the switch-allocation and
//! VC-management stages of a VC router, collapsed into one cycle).
//!
//! Routers are visited through the active-vertex worklist: only vertices
//! holding buffered flits or pending injection streams do any work, and
//! the bitset is walked in ascending vertex order so the arbitration
//! sequence — and therefore every round-robin decision — is bit-identical
//! to a dense `0..num_vertices` scan.

use super::flit::Flit;
use super::{bit_clear, bit_get, bit_set, FrontInfo, Lock, Sim, Source, FRONT_EJECT, FRONT_NONE};
use crate::config::FlowControlMode;
use crate::observer::SimObserver;
use mt_topology::{LinkId, Vertex};

impl<O: SimObserver, const F: bool> Sim<'_, '_, O, F> {
    /// Simulation time of the current cycle in ns (fault queries are
    /// time-stamped in ns). Only called when `F` is on.
    #[inline]
    fn now_ns(&self) -> f64 {
        self.clock as f64 * self.cycle_ns
    }

    /// Whether `out` cannot transmit this cycle: pacing (static link
    /// rate and/or fault degrade) has not released it yet, or — under
    /// `F` — the link is dead or mid-flap. Only called when `F` is on or
    /// the run is rate-paced, so `link_next_free` is always allocated.
    #[inline]
    fn link_blocked(&self, out: LinkId) -> bool {
        self.clock < self.link_next_free[out.index()]
            || (F && self.faults.link_blocked(out.index() as u32, self.now_ns()))
    }

    /// Whether `out`'s source is a crashed host whose NI can no longer
    /// inject (pass-through switch traffic is unaffected). Only called
    /// when `F` is on.
    #[inline]
    fn injection_dead(&self, out: LinkId) -> bool {
        self.topo
            .link(out)
            .src
            .as_node()
            .is_some_and(|n| self.faults.node_dead(n.index() as u32, self.now_ns()))
    }

    /// Appends a flit to buffer `idx`; returns the new buffer length.
    #[inline]
    pub(super) fn buf_push(&mut self, idx: usize, f: Flit) -> u32 {
        let q = &mut self.s.buffers[idx];
        debug_assert!(
            q.len() < self.cfg.vc_buffer_flits as usize,
            "credit protocol violated: buffer overflow"
        );
        q.push_back(f);
        q.len() as u32
    }

    /// Pops the front flit of buffer `idx`, if any.
    #[inline]
    fn buf_pop(&mut self, idx: usize) -> Option<Flit> {
        self.s.buffers[idx].pop_front()
    }

    /// The front flit of buffer `idx`, if any.
    #[inline]
    fn buf_front(&self, idx: usize) -> Option<&Flit> {
        self.s.buffers[idx].front()
    }

    /// One cycle of all (active) routers: ejection, then output
    /// arbitration, under the crossbar constraint of one flit per input
    /// and per output.
    ///
    /// One flit per input link per cycle (`input_used`, cleared by the
    /// main loop before the arrivals); injection is not globally
    /// throttled — the paper's direct-network NI bandwidth "matches the
    /// network bandwidth of the attached router" (§V-A), so a node may
    /// feed all its output ports in the same cycle (each output still
    /// moves at most one flit per cycle). Indirect-network nodes have a
    /// single uplink, which serializes their injection naturally.
    pub(super) fn router_stage(&mut self, vcs: usize) {
        // Snapshot each word of the active bitset: the router stage only
        // ever *clears* bits (transmits land in the calendar, not in
        // buffers), so nothing is missed, and vertices drained by an
        // earlier cycle are retired here for free.
        for w in 0..self.s.active_vertices.len() {
            let mut bits = self.s.active_vertices[w];
            while bits != 0 {
                let v = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let vertex = self.topo.vertex_at(v);
                if self.s.eject_ready[v] > 0 {
                    self.eject_stage(vertex, vcs);
                }

                // --- output arbitration per outgoing link
                for &out_link in self.topo.out_links(vertex) {
                    if let Some(lock) = self.s.locks[out_link.index()] {
                        self.continue_stream(out_link, lock);
                    } else {
                        self.allocate_stream(vertex, out_link, vcs);
                    }
                }

                if self.s.vertex_work[v] == 0 {
                    bit_clear(&mut self.s.active_vertices, v);
                }
            }
        }
    }

    /// Whether the NI at `vertex` is a crashed host, which stops
    /// consuming: flits for it stay buffered (and back the network up)
    /// until the watchdog fires. Only called when `F` is on.
    #[inline]
    fn ejection_dead(&self, vertex: Vertex) -> bool {
        vertex
            .as_node()
            .is_some_and(|n| self.faults.node_dead(n.index() as u32, self.now_ns()))
    }

    /// Ejection: any input whose front flit terminates at `vertex` (at
    /// most one flit per input link per cycle), on the lowest
    /// eject-ready VC — the one a dense `0..vcs` scan would find first.
    fn eject_stage(&mut self, vertex: Vertex, vcs: usize) {
        if F && self.ejection_dead(vertex) {
            return;
        }
        for &in_link in self.topo.in_links(vertex) {
            let mask = self.s.eject_mask[in_link.index()];
            if mask == 0 || bit_get(&self.s.input_used, in_link.index()) {
                continue;
            }
            let vc = mask.trailing_zeros() as u8;
            let idx = in_link.index() * vcs + vc as usize;
            let flit = self.buf_pop(idx).expect("eject-ready front exists");
            self.note_buffer_pop(in_link.index(), vc);
            self.eject(in_link, vc, flit);
        }
    }

    /// Ejects a flit arriving on `link` without buffering it, when it is
    /// the flit `eject_stage` would pick this cycle: it terminates here,
    /// its buffer is empty, no lower VC of the link is eject-ready, and
    /// the destination NI is alive. Nothing can change those facts
    /// between the arrival and the router stage (ejection runs before
    /// output arbitration at a vertex, and a link delivers at most one
    /// flit per cycle), so the run is unchanged — minus a buffer push
    /// and pop, two front-cache updates and the vertex's worklist churn.
    /// Returns whether the flit was ejected.
    pub(super) fn eject_on_arrival(&mut self, link: u32, flit: Flit) -> bool {
        let l = link as usize;
        if flit.route_pos != flit.hops
            || self.s.eject_mask[l] & ((1u64 << flit.vc) - 1) != 0
            || !self.s.buffers[l * self.cfg.num_vcs as usize + flit.vc as usize].is_empty()
        {
            return false;
        }
        if F && self.ejection_dead(self.topo.link(LinkId::new(l)).dst) {
            return false;
        }
        // the flit would have been pushed into its empty buffer
        self.max_buffer = self.max_buffer.max(1);
        self.eject(LinkId::new(l), flit.vc, flit);
        true
    }

    /// Consumes `flit`, taken from input (`in_link`, `vc`) this cycle:
    /// returns its credit, claims the input and counts it towards its
    /// message's delivery.
    fn eject(&mut self, in_link: LinkId, vc: u8, flit: Flit) {
        self.return_credit(in_link, vc);
        bit_set(&mut self.s.input_used, in_link.index());
        if F {
            self.last_progress = self.clock;
        }
        if O::ENABLED {
            self.obs
                .on_flit_ejected(self.clock, in_link.index() as u32, vc, flit.msg);
        }
        let m = &mut self.s.msgs[flit.msg as usize];
        m.ejected_flits += 1;
        if m.ejected_flits == m.total_flits {
            self.s.newly_delivered.push(flit.msg);
            if O::ENABLED {
                self.obs.on_message_delivered(self.clock, flit.msg);
            }
        }
    }

    /// Streams the next flit of the packet currently locking `out_link`.
    fn continue_stream(&mut self, out_link: LinkId, lock: Lock) {
        if (F || self.paced) && self.link_blocked(out_link) {
            return; // link dead, flapping or pacing-held this cycle
        }
        let vcs = self.cfg.num_vcs as usize;
        let out_idx = out_link.index() * vcs + lock.out_vc as usize;
        if self.s.credits[out_idx] == 0 {
            if O::ENABLED {
                self.obs
                    .on_credit_stall(self.clock, out_link.index() as u32, lock.out_vc);
            }
            return; // wormhole backpressure
        }
        match lock.from {
            Source::Buffer { link, vc } => {
                if bit_get(&self.s.input_used, link as usize) {
                    return;
                }
                let in_idx = link as usize * vcs + vc as usize;
                let Some(flit) = self.buf_pop(in_idx) else {
                    return; // bubble: upstream hasn't delivered yet
                };
                debug_assert!(!flit.kind.is_head(), "lock must stream body/tail flits");
                self.note_buffer_pop(link as usize, vc);
                self.return_credit(LinkId::new(link as usize), vc);
                bit_set(&mut self.s.input_used, link as usize);
                self.transmit(out_link, flit, lock.out_vc);
                self.step_lock(out_link, lock);
            }
            Source::Injection => {
                if F && self.injection_dead(out_link) {
                    return; // crashed host: its NI injects nothing more
                }
                // the locked stream is the first one routed over out_link
                // (injection queues are FIFO per output port)
                let Some(stream) = self.s.inject_q[out_link.index()].front_mut() else {
                    return;
                };
                let Some(mut flit) = stream.peek() else {
                    return;
                };
                debug_assert!(!flit.kind.is_head());
                stream.advance();
                if stream.is_done() {
                    self.s.inject_q[out_link.index()].pop_front();
                    self.note_stream_done(out_link);
                }
                flit.vc = lock.out_vc;
                flit.route_pos = 1;
                flit.crossed_dateline = self.s.dateline[out_link.index()];
                if O::ENABLED {
                    self.obs.on_flit_injected(
                        self.clock,
                        out_link.index() as u32,
                        lock.out_vc,
                        flit.msg,
                    );
                }
                self.transmit_raw(out_link, flit);
                self.consume_credit(out_link, lock.out_vc);
                self.step_lock(out_link, lock);
            }
        }
    }

    /// Tries to start a new packet on `out_link`: round-robin over
    /// injection and all (input, vc) heads that route to this output.
    ///
    /// The candidate list is never materialized: candidate `k` decodes as
    /// injection (index 0, present when the node has any pending stream)
    /// followed by the (in_link, vc) pairs in input order — the same
    /// sequence the dense engine builds, so every round-robin pointer
    /// takes the same value.
    fn allocate_stream(&mut self, vertex: Vertex, out_link: LinkId, vcs: usize) {
        // no buffered head routes here and nothing to inject on this
        // port: every candidate probe would fail, and failed probes have
        // no side effects (the round-robin pointer only moves on
        // success), so the scan can be skipped wholesale
        if self.s.cand_count[out_link.index()] == 0
            && self.s.inject_q[out_link.index()].is_empty()
        {
            return;
        }
        // likewise when the link itself cannot transmit this cycle
        if (F || self.paced) && self.link_blocked(out_link) {
            return; // link dead, flapping or pacing-held
        }
        let has_inj = usize::from(
            vertex
                .as_node()
                .is_some_and(|node| self.s.inject_count[node.index()] > 0),
        );
        let in_links = self.topo.in_links(vertex);
        let n = has_inj + in_links.len() * vcs;
        if n == 0 {
            return;
        }
        if self.s.cand_count[out_link.index()] == 0 {
            // no buffered head routes here, so only the injection
            // candidate (index 0) can start, whatever the scan's start
            if self.try_start(Source::Injection, out_link) {
                self.s.rr[out_link.index()] = (1 % n) as u32;
            }
            return;
        }
        let start = self.s.rr[out_link.index()] as usize % n;
        for k in 0..n {
            let c = (start + k) % n;
            let cand = if c < has_inj {
                Source::Injection
            } else {
                Source::Buffer {
                    link: in_links[(c - has_inj) / vcs].index() as u32,
                    vc: ((c - has_inj) % vcs) as u8,
                }
            };
            if self.try_start(cand, out_link) {
                self.s.rr[out_link.index()] = ((start + k + 1) % n) as u32;
                return;
            }
        }
    }

    /// Attempts to start the packet at `cand`'s head on `out_link`
    /// (which `allocate_stream` has checked can transmit this cycle).
    fn try_start(&mut self, cand: Source, out_link: LinkId) -> bool {
        let vcs = self.cfg.num_vcs as usize;
        match cand {
            Source::Buffer { link, vc } => {
                // hot path: one contiguous cache read decides empty,
                // non-head and wrong-route fronts at once — the deque and
                // the message path are only touched on success
                let in_idx = link as usize * vcs + vc as usize;
                let fi = self.s.front_info[in_idx];
                if fi.next_link != out_link.index() as u32 {
                    return false;
                }
                if bit_get(&self.s.input_used, link as usize) {
                    return false;
                }
                let out_vc = self.output_vc_parts(fi.vc, fi.crossed, out_link);
                if !self.credit_check(out_link, out_vc, fi.pkt_flits) {
                    if O::ENABLED {
                        self.obs
                            .on_credit_stall(self.clock, out_link.index() as u32, out_vc);
                    }
                    return false;
                }
                let mut flit = self.buf_pop(in_idx).expect("cached front exists");
                self.note_buffer_pop(link as usize, vc);
                self.return_credit(LinkId::new(link as usize), vc);
                bit_set(&mut self.s.input_used, link as usize);
                flit.crossed_dateline =
                    flit.crossed_dateline || self.s.dateline[out_link.index()];
                flit.vc = out_vc;
                flit.route_pos += 1;
                let remaining = flit.pkt_flits - 1;
                self.transmit_raw(out_link, flit);
                self.consume_credit(out_link, out_vc);
                if remaining > 0 {
                    self.s.locks[out_link.index()] = Some(Lock {
                        from: Source::Buffer { link, vc },
                        out_vc,
                        remaining,
                    });
                }
                true
            }
            Source::Injection => {
                if F && self.injection_dead(out_link) {
                    return false; // crashed host: its NI injects nothing
                }
                // serve the FIRST stream whose path starts with out_link
                // (FIFO per output port)
                let Some(&stream) = self.s.inject_q[out_link.index()].front() else {
                    return false;
                };
                let Some(mut flit) = stream.peek() else {
                    return false;
                };
                if !flit.kind.is_head() {
                    // mid-packet stream without a lock cannot happen: locks
                    // persist until tails; treat as not startable
                    return false;
                }
                let out_vc = self.output_vc(flit, out_link);
                if !self.credit_check(out_link, out_vc, flit.pkt_flits) {
                    if O::ENABLED {
                        self.obs
                            .on_credit_stall(self.clock, out_link.index() as u32, out_vc);
                    }
                    return false;
                }
                let stream = self.s.inject_q[out_link.index()]
                    .front_mut()
                    .expect("checked non-empty");
                stream.advance();
                if stream.is_done() {
                    self.s.inject_q[out_link.index()].pop_front();
                    self.note_stream_done(out_link);
                }
                flit.crossed_dateline = self.s.dateline[out_link.index()];
                flit.vc = out_vc;
                flit.route_pos = 1;
                if O::ENABLED {
                    self.obs.on_flit_injected(
                        self.clock,
                        out_link.index() as u32,
                        out_vc,
                        flit.msg,
                    );
                }
                let remaining = flit.pkt_flits - 1;
                self.transmit_raw(out_link, flit);
                self.consume_credit(out_link, out_vc);
                if remaining > 0 {
                    self.s.locks[out_link.index()] = Some(Lock {
                        from: Source::Injection,
                        out_vc,
                        remaining,
                    });
                }
                true
            }
        }
    }

    /// Bookkeeping for a flit leaving input buffer (`link`, `vc`): the
    /// buffered-flit total and the buffer's vertex (the popping router)
    /// lose one unit, and the front-info cache is refreshed from the new
    /// front.
    fn note_buffer_pop(&mut self, link: usize, vc: u8) {
        self.buffered -= 1;
        self.s.vertex_work[self.s.link_dst[link] as usize] -= 1;
        let in_idx = link * self.cfg.num_vcs as usize + vc as usize;
        if O::ENABLED {
            self.obs.on_buffer_level(
                self.clock,
                link as u32,
                vc,
                self.s.buffers[in_idx].len() as u32,
            );
        }
        let fi = match self.buf_front(in_idx) {
            Some(f) => self.front_info_of(f),
            None => FrontInfo::default(),
        };
        self.set_front(link, vc, fi);
    }

    /// Installs a new front-info entry for buffer (`link`, `vc`), keeping
    /// the per-output candidate counts (a front counts while it is a
    /// startable head routed to some output link) and the link's
    /// eject-ready mask in sync.
    pub(super) fn set_front(&mut self, link: usize, vc: u8, fi: FrontInfo) {
        let in_idx = link * self.cfg.num_vcs as usize + vc as usize;
        let old = self.s.front_info[in_idx].next_link;
        if old < FRONT_EJECT {
            self.s.cand_count[old as usize] -= 1;
        }
        if fi.next_link < FRONT_EJECT {
            self.s.cand_count[fi.next_link as usize] += 1;
        }
        if (old == FRONT_EJECT) != (fi.next_link == FRONT_EJECT) {
            self.s.eject_mask[link] ^= 1 << vc;
            let ready = &mut self.s.eject_ready[self.s.link_dst[link] as usize];
            if fi.next_link == FRONT_EJECT {
                *ready += 1;
            } else {
                *ready -= 1;
            }
        }
        self.s.front_info[in_idx] = fi;
    }

    /// Computes the front-info cache entry for a flit at the head of an
    /// input buffer. Called once per front *change* (push-to-empty, pop);
    /// arbitration probes then reuse the cached entry.
    pub(super) fn front_info_of(&self, f: &Flit) -> FrontInfo {
        let next_link = if f.route_pos == f.hops {
            FRONT_EJECT
        } else if f.kind.is_head() {
            self.prep.hop_links(f.msg as usize)[f.route_pos as usize]
        } else {
            FRONT_NONE
        };
        FrontInfo {
            next_link,
            pkt_flits: f.pkt_flits,
            vc: f.vc,
            crossed: f.crossed_dateline,
        }
    }

    /// Bookkeeping for a fully injected stream leaving its queue.
    fn note_stream_done(&mut self, out_link: LinkId) {
        let node = self
            .topo
            .link(out_link)
            .src
            .as_node()
            .expect("injection source is a node")
            .index();
        self.injecting -= 1;
        self.s.inject_count[node] -= 1;
        self.s.vertex_work[node] -= 1;
    }

    /// Output VC: the packet's base VC pair, escaped to the high VC after
    /// crossing a torus dateline.
    fn output_vc(&self, flit: Flit, out_link: LinkId) -> u8 {
        self.output_vc_parts(flit.vc, flit.crossed_dateline, out_link)
    }

    fn output_vc_parts(&self, vc: u8, crossed_dateline: bool, out_link: LinkId) -> u8 {
        let crossed = crossed_dateline || self.s.dateline[out_link.index()];
        let base = vc & !1; // clear the dateline bit
        base | u8::from(crossed)
    }

    /// VCT for conventional packets (room for the whole packet), wormhole
    /// for big gradient messages (room for one flit).
    fn credit_check(&self, out_link: LinkId, vc: u8, pkt_flits: u32) -> bool {
        let vcs = self.cfg.num_vcs as usize;
        let have = self.s.credits[out_link.index() * vcs + vc as usize];
        match self.cfg.flow_control {
            FlowControlMode::PacketBased => have >= pkt_flits.min(self.cfg.vc_buffer_flits),
            FlowControlMode::MessageBased => have >= 1,
        }
    }

    fn consume_credit(&mut self, link: LinkId, vc: u8) {
        let vcs = self.cfg.num_vcs as usize;
        let idx = link.index() * vcs + vc as usize;
        debug_assert!(self.s.credits[idx] > 0);
        self.s.credits[idx] -= 1;
    }

    fn return_credit(&mut self, link: LinkId, vc: u8) {
        self.s.cal_credits[self.send_slot].push((link.index() as u32, vc));
        self.inflight_credits += 1;
    }

    /// Puts a body/tail flit from a locked stream on the wire.
    fn transmit(&mut self, out_link: LinkId, mut flit: Flit, out_vc: u8) {
        flit.vc = out_vc;
        flit.crossed_dateline = flit.crossed_dateline || self.s.dateline[out_link.index()];
        flit.route_pos += 1;
        self.transmit_raw(out_link, flit);
        self.consume_credit(out_link, out_vc);
    }

    fn transmit_raw(&mut self, out_link: LinkId, flit: Flit) {
        if F {
            self.last_progress = self.clock;
        }
        if F || self.paced {
            // pacing: a link slowed by combined factor k (static rate
            // slowdown × fault degrade) carries one flit per ceil(k)
            // cycles instead of one per cycle. The product composes the
            // two sources multiplicatively and order-independently.
            let slow = if self.paced {
                self.rate_slow[out_link.index()]
            } else {
                1.0
            };
            let k = if F {
                slow * self.faults.degrade_factor(out_link.index() as u32, self.now_ns())
            } else {
                slow
            };
            if k > 1.0 {
                let gap = k.ceil() as u64;
                if gap > 1 {
                    self.link_next_free[out_link.index()] = self.clock + gap;
                }
            }
        }
        self.s.tx_count[out_link.index()] += 1;
        if O::ENABLED {
            self.obs
                .on_link_tx(self.clock, out_link.index() as u32, flit.vc, flit.msg);
        }
        self.s.cal_flits[self.send_slot].push((out_link.index() as u32, flit));
        self.inflight_flits += 1;
    }

    fn step_lock(&mut self, out_link: LinkId, lock: Lock) {
        let remaining = lock.remaining - 1;
        self.s.locks[out_link.index()] = if remaining == 0 {
            None
        } else {
            Some(Lock { remaining, ..lock })
        };
    }
}
