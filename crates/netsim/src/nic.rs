//! The co-designed network-interface state machine (paper §IV-A, Fig. 6).
//!
//! [`NicSim`] executes one accelerator's **all-reduce schedule table**
//! exactly as the proposed hardware does: the head entry is inspected
//! every cycle; a `Reduce`/`Gather` issues once its step matches the
//! timestep counter and its parent/children dependencies are cleared by
//! received messages; a `NOP` arms the lockstep down-counter; the
//! timestep counter advances when the down-counter reaches zero and the
//! current step's operations have issued.
//!
//! The cycle engine in [`crate::cycle`] implements the same issue
//! semantics indexed by schedule events; this module provides the
//! table-indexed hardware model for unit-level validation and for
//! estimating the NI's hardware cost (paper §V-A).

use crate::fault::{FaultReport, DEFAULT_DETECT_WINDOW_NS};
use multitree::table::{ScheduleTable, TableEntry, TableOp};
use multitree::FlowId;
use mt_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// An operation issued by the NI to the DMA engine / network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssuedOp {
    /// Cycle at which the operation issued.
    pub cycle: u64,
    /// Reduce or Gather (NOPs do not issue).
    pub op: TableOp,
    /// Tree flow.
    pub flow: FlowId,
    /// Message destinations (parent for Reduce, children for Gather).
    pub destinations: Vec<NodeId>,
    /// DMA start address.
    pub start_addr: u64,
    /// DMA size in bytes.
    pub size: u64,
}

/// A message delivery the NI observes (the reduction logic or ejection
/// port reporting a completed receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Reduce or Gather message.
    pub op: TableOp,
    /// Tree flow the message belongs to (the head flit's Tree Info).
    pub flow: FlowId,
    /// Sender (identified by the head flit's `Next` field, §IV-B).
    pub from: NodeId,
}

/// One node's NI schedule-management hardware (Fig. 6): schedule table,
/// timestep counter, lockstep down-counter, dependency clearing.
#[derive(Debug, Clone)]
pub struct NicSim {
    entries: Vec<TableEntry>,
    head: usize,
    timestep: u32,
    /// Lockstep down-counter (cycles remaining in the current step).
    lockstep: u64,
    /// Estimated duration per step, in cycles (paper footnote 4).
    step_est: Vec<u64>,
    /// Cycles spent with work ready for a future step while the lockstep
    /// down-counter still gated the timestep advance.
    lockstep_stall_cycles: u64,
    reduces_seen: HashSet<(usize, usize)>,
    gathers_seen: HashSet<(usize, usize)>,
    issued: Vec<IssuedOp>,
    /// Stall-watchdog window in cycles: the NI declares itself stalled
    /// after this many cycles without progress (a head advance, an
    /// issue, or an incoming delivery).
    watchdog_window: u64,
    /// Last cycle the NI made progress (see `watchdog_window`).
    last_progress: u64,
    /// A delivery arrived since the last tick; counted as progress at
    /// that tick (deliveries carry no cycle stamp of their own).
    delivery_pending: bool,
}

impl NicSim {
    /// Creates the NI for one node's table.
    ///
    /// `step_est[s]` is the estimated duration (in cycles) of lockstep
    /// step `s` (1-based; index 0 unused).
    pub fn new(table: &ScheduleTable, step_est: Vec<u64>) -> Self {
        let initial = step_est.get(1).copied().unwrap_or(0);
        NicSim {
            entries: table.entries.clone(),
            head: 0,
            timestep: 1,
            lockstep: initial,
            step_est,
            lockstep_stall_cycles: 0,
            reduces_seen: HashSet::new(),
            gathers_seen: HashSet::new(),
            issued: Vec::new(),
            watchdog_window: u64::MAX,
            last_progress: 0,
            delivery_pending: false,
        }
    }

    /// Arms the stall watchdog: after `window_cycles` cycles with no
    /// progress (no head advance, no issue, no delivery) while the table
    /// is undrained, [`NicSim::watchdog`] reports a stall. Unarmed NIs
    /// (the default) never report one.
    pub fn with_watchdog(mut self, window_cycles: u64) -> Self {
        self.watchdog_window = window_cycles.max(1);
        self
    }

    /// Records a message delivery (clears future dependencies —
    /// Fig. 6 paths (5) and (6)).
    pub fn deliver(&mut self, d: Delivery) {
        self.delivery_pending = true;
        match d.op {
            TableOp::Reduce => {
                self.reduces_seen.insert((d.flow.0, d.from.index()));
            }
            TableOp::Gather => {
                self.gathers_seen.insert((d.flow.0, d.from.index()));
            }
            TableOp::Nop => {}
        }
    }

    /// Advances one cycle: decrements the lockstep counter, inspects the
    /// head entry and issues everything that has become ready this cycle.
    pub fn tick(&mut self, cycle: u64) {
        self.lockstep = self.lockstep.saturating_sub(1);
        if self.delivery_pending {
            self.delivery_pending = false;
            self.last_progress = cycle;
        }
        let (head0, step0) = (self.head, self.timestep);
        self.tick_inner(cycle);
        if self.head != head0 || self.timestep != step0 {
            self.last_progress = cycle;
        }
    }

    fn tick_inner(&mut self, cycle: u64) {
        loop {
            let Some(entry) = self.entries.get(self.head) else {
                return;
            };
            // advance the timestep counter when the next operation belongs
            // to a future step and the lockstep estimate has elapsed
            if entry.step > self.timestep {
                if self.lockstep == 0 {
                    self.timestep += 1;
                    self.lockstep = self
                        .step_est
                        .get(self.timestep as usize)
                        .copied()
                        .unwrap_or(0);
                    continue;
                }
                // the head entry is ready to go but the down-counter still
                // gates it: this cycle is pure lockstep stall, counted so
                // telemetry can attribute it (it is otherwise invisible in
                // the issue trace)
                self.lockstep_stall_cycles += 1;
                return;
            }
            match entry.op {
                TableOp::Nop => {
                    // the stall is realized by the step's lockstep estimate;
                    // cycles it gates show up in `lockstep_stall_cycles`
                    self.head += 1;
                }
                TableOp::Reduce => {
                    let flow = entry.flow.expect("reduce entries carry a flow").0;
                    let ready = entry
                        .aggregation_from
                        .iter()
                        .all(|c| self.reduces_seen.contains(&(flow, c.index())));
                    if !ready {
                        return;
                    }
                    self.issued.push(IssuedOp {
                        cycle,
                        op: TableOp::Reduce,
                        flow: FlowId(flow),
                        destinations: entry.parent.into_iter().collect(),
                        start_addr: entry.start_addr,
                        size: entry.size,
                    });
                    self.head += 1;
                }
                TableOp::Gather => {
                    let flow = entry.flow.expect("gather entries carry a flow").0;
                    let ready = match entry.parent {
                        // interior node: wait for the parent's gather
                        Some(p) => self.gathers_seen.contains(&(flow, p.index())),
                        // flow origin: wait for the reduce deliveries that
                        // complete the aggregation (Fig. 6 path (5); equals
                        // `children` for symmetric tree flows)
                        None => entry
                            .aggregation_from
                            .iter()
                            .all(|c| self.reduces_seen.contains(&(flow, c.index()))),
                    };
                    if !ready {
                        return;
                    }
                    self.issued.push(IssuedOp {
                        cycle,
                        op: TableOp::Gather,
                        flow: FlowId(flow),
                        destinations: entry.children.clone(),
                        start_addr: entry.start_addr,
                        size: entry.size,
                    });
                    self.head += 1;
                }
            }
        }
    }

    /// The current timestep-counter value.
    pub fn timestep(&self) -> u32 {
        self.timestep
    }

    /// Cycles the NI spent stalled on the lockstep down-counter with the
    /// head entry otherwise ready to advance. Previously this wait was
    /// folded silently into issue times; the explicit counter is what the
    /// per-step telemetry ([`crate::telemetry::PhaseProfile`]) reads in
    /// unit-level NI studies.
    pub fn lockstep_stall_cycles(&self) -> u64 {
        self.lockstep_stall_cycles
    }

    /// True when every table entry has been processed.
    pub fn is_done(&self) -> bool {
        self.head >= self.entries.len()
    }

    /// Polls the stall watchdog at `cycle`: when the table is undrained
    /// and nothing has progressed for the armed window (see
    /// [`NicSim::with_watchdog`]), returns a stalled [`FaultReport`]
    /// localizing the head entry — the table-level analogue of the
    /// engines' fault reports, so a replay driver terminates with a
    /// diagnosis instead of spinning on a wedged NI forever.
    /// `cycle_ns` converts the report's times to nanoseconds.
    ///
    /// `delivered`/`total` count table entries processed, and
    /// `first_undelivered_step` is the step of the stuck head entry.
    pub fn watchdog(&self, cycle: u64, cycle_ns: f64) -> Option<FaultReport> {
        if self.is_done() || cycle.saturating_sub(self.last_progress) < self.watchdog_window {
            return None;
        }
        Some(FaultReport {
            delivered: self.head,
            total: self.entries.len(),
            lost_events: Vec::new(),
            first_undelivered_step: self.entries.get(self.head).map(|e| e.step),
            last_progress_ns: self.last_progress as f64 * cycle_ns,
            stalled: true,
            detect_window_ns: if self.watchdog_window == u64::MAX {
                DEFAULT_DETECT_WINDOW_NS
            } else {
                self.watchdog_window as f64 * cycle_ns
            },
        })
    }

    /// Everything issued so far, in issue order.
    pub fn issued(&self) -> &[IssuedOp] {
        &self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multitree::algorithms::{AllReduce, MultiTree};
    use multitree::table::build_tables;
    use multitree::CollectiveOp;
    use mt_topology::Topology;

    /// Replays a whole schedule through per-node NicSims with an oracle
    /// network that delivers a message the cycle after it issues; every
    /// NI must drain its table and issues must respect step order.
    #[test]
    fn full_replay_drains_all_tables() {
        let topo = Topology::mesh(2, 2);
        let schedule = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&schedule, 4096);
        let est = vec![0u64; schedule.num_steps() as usize + 2];
        let mut nics: Vec<NicSim> = tables.iter().map(|t| NicSim::new(t, est.clone())).collect();

        let mut issued_counts = vec![0usize; nics.len()];
        for cycle in 0..1000u64 {
            // deliver everything issued last cycle
            let mut deliveries: Vec<(usize, Delivery)> = Vec::new();
            for (node, nic) in nics.iter().enumerate() {
                for op in nic.issued() {
                    if op.cycle + 1 == cycle {
                        for dst in &op.destinations {
                            deliveries.push((
                                dst.index(),
                                Delivery {
                                    op: op.op,
                                    flow: op.flow,
                                    from: mt_topology::NodeId::new(node),
                                },
                            ));
                        }
                    }
                }
            }
            for (node, d) in deliveries {
                nics[node].deliver(d);
            }
            for nic in &mut nics {
                nic.tick(cycle);
            }
            if nics.iter().all(|n| n.is_done()) {
                break;
            }
        }
        for (node, nic) in nics.iter().enumerate() {
            assert!(nic.is_done(), "node {node} stuck at entry {}", nic.head);
            issued_counts[node] = nic.issued().len();
        }
        // every node issues exactly its sends in the schedule
        for node in 0..4 {
            let expected_reduce = schedule
                .events()
                .filter(|e| e.src.index() == node && e.op == CollectiveOp::Reduce)
                .count();
            let issued_reduce = nics[node]
                .issued()
                .iter()
                .filter(|o| o.op == TableOp::Reduce)
                .count();
            assert_eq!(issued_reduce, expected_reduce, "node {node} reduces");
            assert!(issued_counts[node] > 0);
        }
    }

    #[test]
    fn issues_respect_step_order() {
        let topo = Topology::torus(4, 4);
        let schedule = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&schedule, 1 << 20);
        let est = vec![0u64; schedule.num_steps() as usize + 2];
        let mut nics: Vec<NicSim> = tables.iter().map(|t| NicSim::new(t, est.clone())).collect();
        for cycle in 0..10_000u64 {
            let mut deliveries: Vec<(usize, Delivery)> = Vec::new();
            for (node, nic) in nics.iter().enumerate() {
                for op in nic.issued() {
                    if op.cycle + 1 == cycle {
                        for dst in &op.destinations {
                            deliveries.push((
                                dst.index(),
                                Delivery {
                                    op: op.op,
                                    flow: op.flow,
                                    from: mt_topology::NodeId::new(node),
                                },
                            ));
                        }
                    }
                }
            }
            for (node, d) in deliveries {
                nics[node].deliver(d);
            }
            for nic in &mut nics {
                nic.tick(cycle);
            }
            if nics.iter().all(|n| n.is_done()) {
                break;
            }
        }
        assert!(nics.iter().all(|n| n.is_done()));
    }

    #[test]
    fn lockstep_counter_delays_next_step() {
        // a node whose step-1 work is done must still wait out the
        // estimated step time before issuing step-2 operations
        let topo = Topology::mesh(2, 2);
        let schedule = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&schedule, 4096);
        let mut est = vec![0u64; schedule.num_steps() as usize + 2];
        est[1] = 50; // step 1 estimated at 50 cycles
        let mut nic = NicSim::new(&tables[0], est);
        // deliver everything instantly so only the lockstep gates
        for e in schedule.events() {
            nic.deliver(Delivery {
                op: match e.op {
                    CollectiveOp::Reduce => TableOp::Reduce,
                    CollectiveOp::Gather => TableOp::Gather,
                },
                flow: e.flow,
                from: e.src,
            });
        }
        for cycle in 0..200 {
            nic.tick(cycle);
        }
        assert!(nic.is_done());
        let step2_issue = nic
            .issued()
            .iter()
            .zip(tables[0].entries.iter().filter(|e| e.op != TableOp::Nop))
            .find(|(_, entry)| entry.step == 2)
            .map(|(op, _)| op.cycle)
            .expect("node 0 has step-2 work");
        // the counter decrements on each of cycles 0..=49, so the 50th
        // cycle (index 49) is the earliest legal issue
        assert!(
            step2_issue >= 49,
            "step-2 op issued at {step2_issue} despite 50-cycle estimate"
        );
        // the wait is no longer silent: every gated cycle is counted
        assert!(
            nic.lockstep_stall_cycles() > 0,
            "lockstep gate must register as explicit stall cycles"
        );
    }

    #[test]
    fn no_lockstep_estimate_means_no_stall_cycles() {
        let topo = Topology::mesh(2, 2);
        let schedule = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&schedule, 4096);
        let est = vec![0u64; schedule.num_steps() as usize + 2];
        let mut nic = NicSim::new(&tables[0], est);
        for e in schedule.events() {
            nic.deliver(Delivery {
                op: match e.op {
                    CollectiveOp::Reduce => TableOp::Reduce,
                    CollectiveOp::Gather => TableOp::Gather,
                },
                flow: e.flow,
                from: e.src,
            });
        }
        for cycle in 0..200 {
            nic.tick(cycle);
        }
        assert!(nic.is_done());
        assert_eq!(nic.lockstep_stall_cycles(), 0);
    }

    #[test]
    fn reduce_waits_for_children() {
        let topo = Topology::mesh(2, 2);
        let schedule = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&schedule, 4096);
        // pick a node whose table has a Reduce entry with children
        let (node, entry) = tables
            .iter()
            .enumerate()
            .find_map(|(n, t)| {
                t.entries
                    .iter()
                    .find(|e| e.op == TableOp::Reduce && !e.children.is_empty())
                    .cloned()
                    .map(|e| (n, e))
            })
            .expect("some reduce has a dependency");
        let est = vec![0u64; schedule.num_steps() as usize + 2];
        let mut nic = NicSim::new(&tables[node], est);
        for cycle in 0..100 {
            nic.tick(cycle);
        }
        // the dependent reduce must NOT have issued
        let flow = entry.flow.unwrap();
        assert!(
            !nic.issued()
                .iter()
                .any(|o| o.op == TableOp::Reduce && o.flow == flow && o.cycle < 100
                    && o.destinations == entry.parent.into_iter().collect::<Vec<_>>()
                    && o.start_addr == entry.start_addr),
            "dependent reduce issued without its children"
        );
        // deliver the children and it issues
        for c in &entry.children {
            nic.deliver(Delivery {
                op: TableOp::Reduce,
                flow,
                from: *c,
            });
        }
        nic.tick(100);
        assert!(nic
            .issued()
            .iter()
            .any(|o| o.flow == flow && o.start_addr == entry.start_addr));
    }

    /// A table whose head entry has an external dependency that is never
    /// delivered, plus the NI built on it.
    fn wedged_nic(window: Option<u64>) -> NicSim {
        let topo = Topology::mesh(2, 2);
        let schedule = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&schedule, 4096);
        let node = tables
            .iter()
            .position(|t| {
                t.entries
                    .iter()
                    .any(|e| e.op == TableOp::Reduce && !e.aggregation_from.is_empty())
            })
            .expect("some node waits on reduce deliveries");
        let est = vec![0u64; schedule.num_steps() as usize + 2];
        let nic = NicSim::new(&tables[node], est);
        match window {
            Some(w) => nic.with_watchdog(w),
            None => nic,
        }
    }

    #[test]
    fn watchdog_fires_on_withheld_deliveries() {
        let mut nic = wedged_nic(Some(20));
        for cycle in 0..100 {
            nic.tick(cycle);
        }
        assert!(!nic.is_done(), "withheld deliveries must wedge the table");
        let report = nic
            .watchdog(99, 1.0)
            .expect("20-cycle watchdog must fire after 99 stuck cycles");
        assert!(report.stalled);
        assert!(report.delivered < report.total);
        assert!(report.first_undelivered_step.is_some());
        assert_eq!(report.detect_window_ns, 20.0);
    }

    #[test]
    fn delivery_resets_the_watchdog_timer() {
        let mut nic = wedged_nic(Some(50));
        for cycle in 0..40 {
            nic.tick(cycle);
        }
        // an (irrelevant) delivery at cycle 40 is still NI progress
        nic.deliver(Delivery {
            op: TableOp::Gather,
            flow: FlowId(0),
            from: NodeId::new(3),
        });
        nic.tick(40);
        assert!(
            nic.watchdog(60, 1.0).is_none(),
            "timer must restart from the delivery at cycle 40"
        );
        assert!(nic.watchdog(95, 1.0).is_some());
    }

    #[test]
    fn unarmed_watchdog_never_fires_and_done_tables_are_clean() {
        let mut wedged = wedged_nic(None);
        for cycle in 0..1000 {
            wedged.tick(cycle);
        }
        assert!(wedged.watchdog(999, 1.0).is_none());

        // a drained table reports no stall however stale it is
        let topo = Topology::mesh(2, 2);
        let schedule = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&schedule, 4096);
        let est = vec![0u64; schedule.num_steps() as usize + 2];
        let mut nic = NicSim::new(&tables[0], est).with_watchdog(10);
        for e in schedule.events() {
            nic.deliver(Delivery {
                op: match e.op {
                    CollectiveOp::Reduce => TableOp::Reduce,
                    CollectiveOp::Gather => TableOp::Gather,
                },
                flow: e.flow,
                from: e.src,
            });
        }
        for cycle in 0..200 {
            nic.tick(cycle);
        }
        assert!(nic.is_done());
        assert!(nic.watchdog(10_000, 1.0).is_none());
    }
}
