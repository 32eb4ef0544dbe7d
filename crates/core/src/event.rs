//! Communication events — the atoms of a collective schedule.

use crate::chunk::ChunkRange;
use mt_topology::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an event within its [`CommSchedule`](crate::CommSchedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId(u32);

impl EventId {
    /// Creates an event id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the 32-bit id space.
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "event index exceeds u32");
        EventId(index as u32)
    }

    /// The dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// Identifier of a data flow.
///
/// For tree-based algorithms this is the tree id (equal to the root node's
/// id in MultiTree — the paper's `FlowID`/"tree ID" table field); ring uses
/// the chunk index; halving-doubling uses flow 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub usize);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// The two data-moving opcodes of an all-reduce schedule (the paper's
/// third opcode, `NOP`, is synthesized during schedule-table generation —
/// it moves no data and so never appears as an event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveOp {
    /// Leaf-to-root aggregation: the destination adds the source's partial
    /// sums for the carried segments.
    Reduce,
    /// Root-to-leaf propagation: the destination overwrites its copy of the
    /// carried segments with the source's (fully reduced) values.
    Gather,
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveOp::Reduce => write!(f, "Reduce"),
            CollectiveOp::Gather => write!(f, "Gather"),
        }
    }
}

/// One point-to-point message of a collective schedule: a borrowed,
/// `Copy` view of one row of a [`CommSchedule`](crate::CommSchedule)'s
/// event columns. The fixed-width fields are copied out; the dependency
/// list and the explicit path borrow the schedule's CSR arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommEvent<'a> {
    /// This event's id (its index in the schedule).
    pub id: EventId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Flow (tree/chunk) this message belongs to.
    pub flow: FlowId,
    /// Reduce or Gather semantics.
    pub op: CollectiveOp,
    /// Data segments carried.
    pub chunk: ChunkRange,
    /// Lockstep time step (1-based, as in the paper's schedule tables).
    pub step: u32,
    pub(crate) deps: &'a [EventId],
    pub(crate) path: Option<&'a [LinkId]>,
}

impl<'a> CommEvent<'a> {
    /// Events whose completion makes this event's payload valid at `src`.
    pub fn deps(&self) -> &'a [EventId] {
        self.deps
    }

    /// Explicit link path allocated by the algorithm (MultiTree allocates
    /// every hop itself); `None` means "use the topology's deterministic
    /// routing". `Some(&[])` is a distinct, explicitly empty path.
    pub fn path(&self) -> Option<&'a [LinkId]> {
        self.path
    }

    /// Payload bytes of this event for a given total all-reduce size.
    pub fn bytes(&self, total_bytes: u64, total_segments: u32) -> u64 {
        self.chunk.bytes(total_bytes, total_segments)
    }
}

impl fmt::Display for CommEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{} {} {} chunk {} @step {}",
            self.id, self.src, self.dst, self.op, self.flow, self.chunk, self.step
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_display() {
        let e = CommEvent {
            id: EventId::new(0),
            src: NodeId::new(1),
            dst: NodeId::new(2),
            flow: FlowId(3),
            op: CollectiveOp::Reduce,
            chunk: ChunkRange::single(3),
            step: 1,
            deps: &[],
            path: None,
        };
        assert_eq!(e.to_string(), "E0 N1->N2 Reduce F3 chunk [3, 4) @step 1");
    }

    #[test]
    fn event_bytes_follow_chunk() {
        let e = CommEvent {
            id: EventId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            flow: FlowId(0),
            op: CollectiveOp::Gather,
            chunk: ChunkRange::new(0, 2),
            step: 1,
            deps: &[],
            path: None,
        };
        assert_eq!(e.bytes(1024, 4), 512);
    }
}
