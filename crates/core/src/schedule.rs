//! The collective-schedule intermediate representation.

use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, CommEvent, EventId, FlowId};
use mt_topology::{LinkId, NodeId};
use serde::{Deserialize, Error, Serialize, Value};

/// A complete all-reduce schedule: a dependency DAG of [`CommEvent`]s.
///
/// Every algorithm in [`crate::algorithms`] lowers to this one IR, so the
/// verifier, the cost model, the NI schedule-table generator and both
/// network-simulation engines treat all algorithms identically (the paper
/// applies its hardware scheduling "to all the baselines for fair
/// comparison", §V-A).
///
/// Events are stored as columns: one fixed-width array per field, plus
/// one CSR arena for all dependency lists and one for all explicit link
/// paths, so building or dropping a schedule costs a handful of
/// allocations however many events it holds. [`CommSchedule::event`] and
/// [`CommSchedule::events`] hand out borrowed [`CommEvent`] views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSchedule {
    algorithm: String,
    num_nodes: usize,
    total_segments: u32,
    num_steps: u32,
    // per-event columns, indexed by event id; node ids as u32
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    flows: Vec<u32>,
    ops: Vec<CollectiveOp>,
    chunks: Vec<ChunkRange>,
    steps: Vec<u32>,
    /// Event `i`'s deps are `dep_ids[dep_offsets[i]..dep_offsets[i + 1]]`.
    dep_offsets: Vec<u32>,
    dep_ids: Vec<EventId>,
    /// Whether event `i` carries an explicit path (`Some`, possibly
    /// empty) rather than deferring to the topology's routing (`None`).
    explicit: Vec<bool>,
    /// Event `i`'s explicit path is
    /// `path_links[path_offsets[i]..path_offsets[i + 1]]`; the range is
    /// empty for unrouted events.
    path_offsets: Vec<u32>,
    path_links: Vec<LinkId>,
}

impl CommSchedule {
    /// Creates an empty schedule for `num_nodes` participants over
    /// `total_segments` data segments.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or `total_segments == 0`.
    pub fn new(algorithm: impl Into<String>, num_nodes: usize, total_segments: u32) -> Self {
        assert!(num_nodes > 0, "schedule needs at least one node");
        assert!(total_segments > 0, "schedule needs at least one segment");
        CommSchedule {
            algorithm: algorithm.into(),
            num_nodes,
            total_segments,
            num_steps: 0,
            srcs: Vec::new(),
            dsts: Vec::new(),
            flows: Vec::new(),
            ops: Vec::new(),
            chunks: Vec::new(),
            steps: Vec::new(),
            dep_offsets: vec![0],
            dep_ids: Vec::new(),
            explicit: Vec::new(),
            path_offsets: vec![0],
            path_links: Vec::new(),
        }
    }

    /// Reserves room for `events` more events with `deps` dependencies and
    /// `links` explicit path links in total, so each column grows once.
    pub fn reserve(&mut self, events: usize, deps: usize, links: usize) {
        self.srcs.reserve_exact(events);
        self.dsts.reserve_exact(events);
        self.flows.reserve_exact(events);
        self.ops.reserve_exact(events);
        self.chunks.reserve_exact(events);
        self.steps.reserve_exact(events);
        self.dep_offsets.reserve_exact(events);
        self.explicit.reserve_exact(events);
        self.path_offsets.reserve_exact(events);
        self.dep_ids.reserve_exact(deps);
        self.path_links.reserve_exact(links);
    }

    /// Appends an event and returns its id. The dependency ids and the
    /// explicit path go straight into the schedule's arenas.
    ///
    /// # Panics
    ///
    /// Panics if endpoints are out of range, the event is a self-message,
    /// the chunk exceeds the schedule's segment space, or a dependency id
    /// does not exist yet (dependencies must refer to already-added
    /// events, which also guarantees the DAG is acyclic).
    #[allow(clippy::too_many_arguments)]
    pub fn push_event(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        op: CollectiveOp,
        chunk: ChunkRange,
        step: u32,
        deps: impl IntoIterator<Item = EventId>,
        path: Option<&[LinkId]>,
    ) -> EventId {
        self.try_push_event(src, dst, flow, op, chunk, step, deps, path)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CommSchedule::push_event`] reporting a rejected event instead of
    /// panicking; on error the schedule is unchanged.
    #[allow(clippy::too_many_arguments)]
    fn try_push_event(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        op: CollectiveOp,
        chunk: ChunkRange,
        step: u32,
        deps: impl IntoIterator<Item = EventId>,
        path: Option<&[LinkId]>,
    ) -> Result<EventId, String> {
        let problem = if src.index() >= self.num_nodes || dst.index() >= self.num_nodes {
            Some("endpoint out of range")
        } else if src == dst {
            Some("self-messages are not allowed")
        } else if chunk.start > chunk.end || chunk.end > self.total_segments {
            Some("chunk exceeds the segment space")
        } else if step == 0 {
            Some("steps are 1-based")
        } else {
            None
        };
        if let Some(p) = problem {
            return Err(format!("{p}: {src}->{dst} chunk {chunk} step {step}"));
        }
        let flow = u32::try_from(flow.0).map_err(|_| format!("flow {flow} exceeds u32"))?;
        let id = EventId::new(self.srcs.len());
        let deps_start = self.dep_ids.len();
        for d in deps {
            if d.index() >= id.index() {
                self.dep_ids.truncate(deps_start);
                return Err(format!("dependency {d} refers to a not-yet-added event"));
            }
            self.dep_ids.push(d);
        }
        let arena_len = |len: usize| u32::try_from(len).expect("arena exceeds u32 offsets");
        self.dep_offsets.push(arena_len(self.dep_ids.len()));
        self.explicit.push(path.is_some());
        self.path_links.extend_from_slice(path.unwrap_or_default());
        self.path_offsets.push(arena_len(self.path_links.len()));
        self.srcs.push(src.index() as u32);
        self.dsts.push(dst.index() as u32);
        self.flows.push(flow);
        self.ops.push(op);
        self.chunks.push(chunk);
        self.steps.push(step);
        self.num_steps = self.num_steps.max(step);
        Ok(id)
    }

    /// The producing algorithm's name (e.g. `"multitree"`).
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Number of participating nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of data segments the payload is divided into.
    pub fn total_segments(&self) -> u32 {
        self.total_segments
    }

    /// Number of lockstep time steps (the maximum `step` of any event).
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// Number of events.
    pub fn num_events(&self) -> usize {
        self.srcs.len()
    }

    /// All events in id order. Dependencies can only name earlier events
    /// (see [`CommSchedule::push_event`]), so this is a topological order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = CommEvent<'_>> + '_ {
        (0..self.num_events()).map(|i| self.event(EventId::new(i)))
    }

    /// Bytes of heap this schedule occupies: the allocated capacity of
    /// every column and arena. Used by byte-budgeted caches.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.algorithm.capacity()
            + cap(&self.srcs)
            + cap(&self.dsts)
            + cap(&self.flows)
            + cap(&self.ops)
            + cap(&self.chunks)
            + cap(&self.steps)
            + cap(&self.dep_offsets)
            + cap(&self.dep_ids)
            + cap(&self.explicit)
            + cap(&self.path_offsets)
            + cap(&self.path_links)
    }

    /// The event behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn event(&self, id: EventId) -> CommEvent<'_> {
        let i = id.index();
        CommEvent {
            id,
            src: NodeId::new(self.srcs[i] as usize),
            dst: NodeId::new(self.dsts[i] as usize),
            flow: FlowId(self.flows[i] as usize),
            op: self.ops[i],
            chunk: self.chunks[i],
            step: self.steps[i],
            deps: self.deps(i),
            path: self.path(i),
        }
    }

    /// Every event's source node index, by event id.
    #[inline]
    pub(crate) fn srcs(&self) -> &[u32] {
        &self.srcs
    }

    /// Every event's destination node index, by event id.
    #[inline]
    pub(crate) fn dsts(&self) -> &[u32] {
        &self.dsts
    }

    /// Every event's flow index, by event id.
    #[inline]
    pub(crate) fn flows(&self) -> &[u32] {
        &self.flows
    }

    /// Every event's collective operation, by event id.
    #[inline]
    pub(crate) fn ops(&self) -> &[CollectiveOp] {
        &self.ops
    }

    /// Every event's data segments, by event id.
    #[inline]
    pub(crate) fn chunks(&self) -> &[ChunkRange] {
        &self.chunks
    }

    /// Every event's lockstep step, by event id.
    #[inline]
    pub(crate) fn steps(&self) -> &[u32] {
        &self.steps
    }

    /// Event `i`'s dependencies.
    #[inline]
    pub(crate) fn deps(&self, i: usize) -> &[EventId] {
        &self.dep_ids[self.dep_offsets[i] as usize..self.dep_offsets[i + 1] as usize]
    }

    /// Number of dependencies event `i` waits on.
    #[inline]
    pub(crate) fn indegree(&self, i: usize) -> u32 {
        self.dep_offsets[i + 1] - self.dep_offsets[i]
    }

    /// Event `i`'s explicit path, if it has one.
    #[inline]
    pub(crate) fn path(&self, i: usize) -> Option<&[LinkId]> {
        self.explicit[i].then(|| {
            &self.path_links[self.path_offsets[i] as usize..self.path_offsets[i + 1] as usize]
        })
    }

    /// Events sent by a given node, in insertion order.
    pub fn events_from(&self, node: NodeId) -> impl Iterator<Item = CommEvent<'_>> + '_ {
        self.events().filter(move |e| e.src == node)
    }

    /// Events received by a given node, in insertion order.
    pub fn events_to(&self, node: NodeId) -> impl Iterator<Item = CommEvent<'_>> + '_ {
        self.events().filter(move |e| e.dst == node)
    }

    /// A topological order of the events (dependencies first).
    ///
    /// Because [`CommSchedule::push_event`] only allows dependencies on
    /// already-added events, insertion order *is* a topological order;
    /// this method exists to make that contract explicit at call sites.
    pub fn topological_order(&self) -> impl ExactSizeIterator<Item = CommEvent<'_>> + '_ {
        self.events()
    }

    /// Number of distinct flows.
    pub fn num_flows(&self) -> usize {
        self.flows.iter().collect::<std::collections::BTreeSet<_>>().len()
    }

    /// Events grouped by time step (index 0 = step 1).
    pub fn events_by_step(&self) -> Vec<Vec<CommEvent<'_>>> {
        let mut by_step: Vec<Vec<CommEvent<'_>>> = vec![Vec::new(); self.num_steps as usize];
        for e in self.events() {
            by_step[(e.step - 1) as usize].push(e);
        }
        by_step
    }

    /// Bytes each node sends for a payload of `total_bytes`.
    pub fn sent_bytes_per_node(&self, total_bytes: u64) -> Vec<u64> {
        let mut sent = vec![0u64; self.num_nodes];
        for (&src, chunk) in self.srcs.iter().zip(&self.chunks) {
            sent[src as usize] += chunk.bytes(total_bytes, self.total_segments);
        }
        sent
    }

    /// Sequentially composes two schedules over the same machine and the
    /// same segment space: `other` starts after `self` completes (its
    /// steps are shifted past `self`'s and every one of its source-less
    /// events is gated on `self`'s final deliveries to that node). The
    /// canonical use is building an all-reduce from a reduce-scatter
    /// followed by an all-gather.
    ///
    /// # Panics
    ///
    /// Panics if node counts or segment counts differ.
    pub fn then(&self, other: &CommSchedule) -> CommSchedule {
        assert_eq!(self.num_nodes, other.num_nodes, "same machine required");
        assert_eq!(
            self.total_segments, other.total_segments,
            "same segment space required"
        );
        // barrier: each node's deliveries in `self`
        let mut delivered: Vec<Vec<EventId>> = vec![Vec::new(); self.num_nodes];
        for (i, &dst) in self.dsts.iter().enumerate() {
            delivered[dst as usize].push(EventId::new(i));
        }
        let mut out = self.clone();
        out.algorithm = format!("{}+{}", self.algorithm, other.algorithm);
        out.append(other, 0, 0, self.num_steps, &delivered);
        out
    }

    /// Merges two schedules over the **same machine** into one that runs
    /// them concurrently (both start at lockstep step 1, sharing the
    /// physical links) — the co-located-jobs situation of paper §VII-B.
    /// `other`'s segments and flows are renumbered after `self`'s; a
    /// payload of `total_bytes` then splits between the jobs in
    /// proportion to their segment counts.
    ///
    /// # Panics
    ///
    /// Panics if the schedules disagree on the node count.
    pub fn merge_concurrent(&self, other: &CommSchedule) -> CommSchedule {
        assert_eq!(
            self.num_nodes, other.num_nodes,
            "merged schedules must target the same machine"
        );
        let mut out = self.clone();
        out.algorithm = format!("{}||{}", self.algorithm, other.algorithm);
        out.total_segments = self.total_segments + other.total_segments;
        let flow_base = self
            .flows
            .iter()
            .map(|&f| f as usize + 1)
            .max()
            .unwrap_or(0);
        out.append(other, flow_base, self.total_segments, 0, &[]);
        out
    }

    /// Appends `other`'s events with ids, flows, segments and steps
    /// shifted past this schedule's; a source-less event of `other` also
    /// waits on `barrier[its sender]` when a barrier is given.
    fn append(
        &mut self,
        other: &CommSchedule,
        flow_base: usize,
        seg_base: u32,
        step_base: u32,
        barrier: &[Vec<EventId>],
    ) {
        let id_base = self.num_events();
        for e in other.events() {
            let shifted = e.deps().iter().map(|d| EventId::new(d.index() + id_base));
            let gate = match barrier.get(e.src.index()) {
                Some(b) if e.deps().is_empty() => b.as_slice(),
                _ => &[],
            };
            self.push_event(
                e.src,
                e.dst,
                FlowId(e.flow.0 + flow_base),
                e.op,
                ChunkRange::new(e.chunk.start + seg_base, e.chunk.end + seg_base),
                e.step + step_base,
                shifted.chain(gate.iter().copied()),
                e.path(),
            );
        }
    }

    /// Structural sanity checks beyond what `push_event` enforces:
    /// dependencies must not be scheduled after their dependents.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::MalformedSchedule`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<(), AlgorithmError> {
        for (i, &step) in self.steps.iter().enumerate() {
            if let Some(d) = self.deps(i).iter().find(|d| self.steps[d.index()] > step) {
                let dep = self.event(*d);
                return Err(AlgorithmError::MalformedSchedule {
                    detail: format!(
                        "event {} at step {step} depends on {dep} at later step {}",
                        self.event(EventId::new(i)),
                        dep.step
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Serializes as a list of event records: `{algorithm, num_nodes, total_segments,
/// events: [{id, src, dst, flow, op, chunk, step, deps, path}], num_steps}`.
impl Serialize for CommSchedule {
    fn to_value(&self) -> Value {
        let f = |k: &str, v: Value| (k.to_string(), v);
        let events = self.events().map(|e| {
            Value::Map(vec![
                f("id", e.id.to_value()),
                f("src", e.src.to_value()),
                f("dst", e.dst.to_value()),
                f("flow", e.flow.to_value()),
                f("op", e.op.to_value()),
                f("chunk", e.chunk.to_value()),
                f("step", e.step.to_value()),
                f("deps", e.deps().to_value()),
                f("path", e.path().to_value()),
            ])
        });
        Value::Map(vec![
            f("algorithm", self.algorithm.to_value()),
            f("num_nodes", self.num_nodes.to_value()),
            f("total_segments", self.total_segments.to_value()),
            f("events", Value::Seq(events.collect())),
            f("num_steps", self.num_steps.to_value()),
        ])
    }
}

/// Rebuilds the columns through [`CommSchedule::push_event`]'s checks,
/// rejecting (not panicking on) events that fail them, ids out of
/// sequence, and a `num_steps` that is not the events' last step.
impl Deserialize for CommSchedule {
    fn from_value(v: &Value) -> Result<Self, Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
            T::from_value(v.get_field(name)?)
        }
        let num_nodes: usize = field(v, "num_nodes")?;
        let total_segments: u32 = field(v, "total_segments")?;
        if num_nodes == 0 || total_segments == 0 {
            return Err(Error::custom("schedule needs a node and a segment"));
        }
        let mut s = CommSchedule::new(field::<String>(v, "algorithm")?, num_nodes, total_segments);
        for (i, e) in v.get_field("events")?.as_seq()?.iter().enumerate() {
            if field::<EventId>(e, "id")?.index() != i {
                return Err(Error::custom(format!("event {i} is out of sequence")));
            }
            let deps: Vec<EventId> = field(e, "deps")?;
            let path: Option<Vec<LinkId>> = field(e, "path")?;
            let (src, dst, flow) = (field(e, "src")?, field(e, "dst")?, field(e, "flow")?);
            let (op, chunk, step) = (field(e, "op")?, field(e, "chunk")?, field(e, "step")?);
            s.try_push_event(src, dst, flow, op, chunk, step, deps, path.as_deref())
                .map_err(|msg| Error::custom(format!("event {i}: {msg}")))?;
        }
        if field::<u32>(v, "num_steps")? != s.num_steps {
            return Err(Error::custom("num_steps is not the events' last step"));
        }
        Ok(s)
    }
}

impl std::fmt::Display for CommSchedule {
    /// One-line summary: algorithm, nodes, flows, events, steps.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} nodes, {} flows, {} events over {} steps ({} segments)",
            self.algorithm,
            self.num_nodes,
            self.num_flows(),
            self.num_events(),
            self.num_steps,
            self.total_segments
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: &mut CommSchedule, src: usize, dst: usize, step: u32, deps: Vec<EventId>) -> EventId {
        s.push_event(
            NodeId::new(src),
            NodeId::new(dst),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            step,
            deps,
            None,
        )
    }

    #[test]
    fn push_and_query() {
        let mut s = CommSchedule::new("test", 4, 4);
        let a = ev(&mut s, 0, 1, 1, vec![]);
        let b = ev(&mut s, 1, 2, 2, vec![a]);
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.event(b).deps(), [a]);
        assert_eq!(s.events_from(NodeId::new(1)).count(), 1);
        assert_eq!(s.events_to(NodeId::new(1)).count(), 1);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn events_by_step_groups() {
        let mut s = CommSchedule::new("test", 4, 4);
        ev(&mut s, 0, 1, 1, vec![]);
        ev(&mut s, 2, 3, 1, vec![]);
        ev(&mut s, 1, 2, 2, vec![]);
        let by = s.events_by_step();
        assert_eq!(by[0].len(), 2);
        assert_eq!(by[1].len(), 1);
    }

    #[test]
    #[should_panic(expected = "self-messages")]
    fn self_message_rejected() {
        let mut s = CommSchedule::new("test", 4, 4);
        ev(&mut s, 1, 1, 1, vec![]);
    }

    #[test]
    #[should_panic(expected = "not-yet-added")]
    fn forward_dependency_rejected() {
        let mut s = CommSchedule::new("test", 4, 4);
        ev(&mut s, 0, 1, 1, vec![EventId::new(5)]);
    }

    #[test]
    fn validate_rejects_backward_steps() {
        let mut s = CommSchedule::new("test", 4, 4);
        let a = ev(&mut s, 0, 1, 5, vec![]);
        ev(&mut s, 1, 2, 1, vec![a]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn sent_bytes_accounting() {
        let mut s = CommSchedule::new("test", 2, 4);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::new(0, 2),
            1,
            vec![],
            None,
        );
        let sent = s.sent_bytes_per_node(1024);
        assert_eq!(sent, vec![512, 0]);
    }

    #[test]
    fn merge_concurrent_renumbers_cleanly() {
        let mut a = CommSchedule::new("a", 4, 2);
        let e0 = ev(&mut a, 0, 1, 1, vec![]);
        ev(&mut a, 1, 2, 2, vec![e0]);
        let mut b = CommSchedule::new("b", 4, 3);
        let f0 = ev(&mut b, 2, 3, 1, vec![]);
        ev(&mut b, 3, 0, 2, vec![f0]);
        let m = a.merge_concurrent(&b);
        assert_eq!(m.algorithm(), "a||b");
        assert_eq!(m.total_segments(), 5);
        assert_eq!(m.events().len(), 4);
        // b's dep remapped past a's events
        assert_eq!(m.event(EventId::new(3)).deps(), [EventId::new(2)]);
        // b's chunks shifted into the second segment block
        assert_eq!(m.event(EventId::new(2)).chunk.start, 2);
        assert!(m.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "same machine")]
    fn merge_rejects_different_machines() {
        let a = CommSchedule::new("a", 4, 1);
        let b = CommSchedule::new("b", 8, 1);
        let _ = a.merge_concurrent(&b);
    }

    #[test]
    fn display_summarizes() {
        let mut s = CommSchedule::new("demo", 4, 4);
        ev(&mut s, 0, 1, 1, vec![]);
        assert_eq!(
            s.to_string(),
            "demo: 4 nodes, 1 flows, 1 events over 1 steps (4 segments)"
        );
    }

    #[test]
    fn num_flows_counts_distinct() {
        let mut s = CommSchedule::new("test", 4, 4);
        for f in [0usize, 1, 1, 2] {
            s.push_event(
                NodeId::new(0),
                NodeId::new(1),
                FlowId(f),
                CollectiveOp::Reduce,
                ChunkRange::single(0),
                1,
                vec![],
                None,
            );
        }
        assert_eq!(s.num_flows(), 3);
    }

    #[test]
    fn unrouted_and_empty_paths_stay_distinct() {
        let mut s = CommSchedule::new("test", 4, 4);
        let l = [LinkId::new(3), LinkId::new(7)];
        let (a, b, c) = (
            s.push_event(
                NodeId::new(0),
                NodeId::new(1),
                FlowId(0),
                CollectiveOp::Reduce,
                ChunkRange::single(0),
                1,
                [],
                None,
            ),
            s.push_event(
                NodeId::new(1),
                NodeId::new(2),
                FlowId(0),
                CollectiveOp::Reduce,
                ChunkRange::single(0),
                2,
                [EventId::new(0)],
                Some(&[]),
            ),
            s.push_event(
                NodeId::new(2),
                NodeId::new(3),
                FlowId(0),
                CollectiveOp::Gather,
                ChunkRange::single(0),
                3,
                [EventId::new(0), EventId::new(1)],
                Some(&l),
            ),
        );
        assert_eq!(s.event(a).path(), None);
        assert_eq!(s.event(b).path(), Some(&[][..]));
        assert_eq!(s.event(c).path(), Some(&l[..]));
        assert_eq!(s.event(c).deps(), [a, b]);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"path\":null") && json.contains("\"path\":[]"));
        let back: CommSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn deserialize_rejects_broken_events() {
        let mut s = CommSchedule::new("test", 4, 4);
        let a = ev(&mut s, 0, 1, 1, vec![]);
        ev(&mut s, 1, 2, 2, vec![a]);
        let json = serde_json::to_string(&s).unwrap();
        for (from, to) in [
            ("\"deps\":[0]", "\"deps\":[1]"),
            ("\"id\":1", "\"id\":0"),
            ("\"dst\":2", "\"dst\":9"),
            ("\"num_steps\":2", "\"num_steps\":3"),
        ] {
            assert!(json.contains(from), "{from}");
            let bad = json.replace(from, to);
            assert!(serde_json::from_str::<CommSchedule>(&bad).is_err(), "{to}");
        }
    }

    #[test]
    fn heap_bytes_counts_every_column_capacity() {
        use std::mem::size_of;
        let topo = mt_topology::Topology::torus(4, 4);
        let s =
            crate::algorithms::AllReduce::build(&crate::algorithms::MultiTree::default(), &topo)
                .unwrap();
        let expect = s.algorithm.capacity()
            + (s.srcs.capacity() + s.dsts.capacity() + s.flows.capacity() + s.steps.capacity())
                * size_of::<u32>()
            + s.ops.capacity() * size_of::<CollectiveOp>()
            + s.chunks.capacity() * size_of::<ChunkRange>()
            + (s.dep_offsets.capacity() + s.path_offsets.capacity()) * size_of::<u32>()
            + s.dep_ids.capacity() * size_of::<EventId>()
            + s.explicit.capacity() * size_of::<bool>()
            + s.path_links.capacity() * size_of::<LinkId>();
        assert_eq!(s.heap_bytes(), expect);
        assert!(s.heap_bytes() >= s.num_events() * 30);
    }
}
