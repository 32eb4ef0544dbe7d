//! Per-node all-reduce **schedule tables** — the co-designed NI state
//! (paper §IV-A, Fig. 5).
//!
//! Every node's network interface holds one table; each entry is a *send*
//! action with its dependencies: a `Reduce` entry sends to `parent` once
//! the `children` dependencies have delivered; a `Gather` entry sends to
//! `children` once the `parent` dependency has delivered (no parent = the
//! node is the flow's root); a `Nop` entry stalls injection for one
//! estimated step time to keep nodes in lockstep.

use crate::event::{CollectiveOp, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Table-entry opcode (paper Fig. 5: Reduce, Gather, NOP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableOp {
    /// Send this node's aggregate toward the flow's root.
    Reduce,
    /// Propagate the reduced result toward the leaves.
    Gather,
    /// Stall injection for one lockstep interval.
    Nop,
}

impl fmt::Display for TableOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableOp::Reduce => write!(f, "Reduce"),
            TableOp::Gather => write!(f, "Gather"),
            TableOp::Nop => write!(f, "NOP"),
        }
    }
}

/// One row of a node's all-reduce schedule table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableEntry {
    /// Opcode.
    pub op: TableOp,
    /// Tree/flow id (`None` for NOP).
    pub flow: Option<FlowId>,
    /// For `Reduce`: the destination (tree parent). For `Gather`: the
    /// dependency source (`None` when this node is the root).
    pub parent: Option<NodeId>,
    /// For `Reduce`: dependency children whose aggregates must arrive
    /// first. For `Gather`: the destinations.
    pub children: Vec<NodeId>,
    /// For a `Gather` without a parent (the flow's origin): the senders
    /// whose `Reduce` deliveries complete the aggregation this broadcast
    /// waits for. For tree flows this equals `children` (the paper's
    /// symmetric case, which is why Fig. 5 needs no extra column); chain
    /// flows (ring as a "unary spanning tree") need it spelled out.
    pub aggregation_from: Vec<NodeId>,
    /// Lockstep time step at which the operation issues.
    pub step: u32,
    /// DMA start address of the gradient chunk (bytes).
    pub start_addr: u64,
    /// DMA size of the gradient chunk (bytes).
    pub size: u64,
}

/// A node's complete schedule table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleTable {
    /// The owning node (accelerator).
    pub node: NodeId,
    /// Entries ordered by step (NOPs fill idle steps up to the last send).
    pub entries: Vec<TableEntry>,
}

impl ScheduleTable {
    /// Number of non-NOP entries.
    pub fn active_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.op != TableOp::Nop).count()
    }

    /// Hardware size estimate in bits, using the paper's numbers: each
    /// entry needs opcode (2b), flow id, parent, `children_slots` child
    /// slots, step, address (48b) and size (32b) fields.
    pub fn size_bits(&self, num_nodes: usize, children_slots: usize) -> usize {
        let id_bits = usize::BITS as usize - (num_nodes.max(2) - 1).leading_zeros() as usize;
        let step_bits = 16;
        let entry = 2 + id_bits + id_bits + children_slots * id_bits + step_bits + 48 + 32;
        self.entries.len() * entry
    }
}

/// Builds the per-node schedule tables for a schedule, for an all-reduce
/// payload of `total_bytes` (fixing DMA addresses/sizes).
///
/// Entries are grouped exactly as the hardware expects: one `Reduce` entry
/// per (flow, step) send with its child dependencies, one `Gather` entry
/// per (flow, step) fan-out with all destinations, and `Nop` entries
/// filling idle steps before the node's last send.
///
/// Expressiveness note: the paper's entry format records dependencies
/// *within a flow* (parent/children of a tree, or a chain as a unary
/// tree). Tree- and chain-structured schedules — MultiTree and its
/// collectives, Ring, DBTree, Blink — replay exactly on
/// [`NicSim`](../../mt_netsim/nic/struct.NicSim.html)-style hardware.
/// 2D-Ring's phase-2 sends depend on *other flows'* phase-1 deliveries,
/// which the format cannot carry; such schedules are driven by the
/// event-indexed NI logic the cycle engine implements instead.
///
/// ```
/// use mt_topology::Topology;
/// use multitree::algorithms::{AllReduce, MultiTree};
/// use multitree::table::build_tables;
///
/// let topo = Topology::mesh(2, 2);
/// let schedule = MultiTree::default().build(&topo)?;
/// let tables = build_tables(&schedule, 4096);
/// assert_eq!(tables.len(), 4); // one per accelerator (paper Fig. 5)
/// println!("{}", tables[0]);   // renders the Fig. 5 layout
/// # Ok::<(), multitree::AlgorithmError>(())
/// ```
pub fn build_tables(schedule: &CommSchedule, total_bytes: u64) -> Vec<ScheduleTable> {
    let n = schedule.num_nodes();
    let segs = schedule.total_segments();
    let per_seg = total_bytes.div_ceil(u64::from(segs));
    let mut tables: Vec<ScheduleTable> = (0..n)
        .map(|i| ScheduleTable {
            node: NodeId::new(i),
            entries: Vec::new(),
        })
        .collect();

    #[allow(clippy::needless_range_loop)]
    for node in 0..n {
        let node_id = NodeId::new(node);
        // group sends by (step, flow, op)
        let mut groups: BTreeMap<(u32, usize, bool), Vec<crate::event::CommEvent<'_>>> =
            BTreeMap::new();
        for e in schedule.events_from(node_id) {
            let is_gather = e.op == CollectiveOp::Gather;
            groups
                .entry((e.step, e.flow.0, is_gather))
                .or_default()
                .push(e);
        }
        let mut entries = Vec::new();
        for ((step, flow, is_gather), events) in groups {
            let first = events[0];
            let start_addr = u64::from(first.chunk.start) * per_seg;
            let size: u64 = events
                .iter()
                .map(|e| e.bytes(total_bytes, segs))
                .max()
                .unwrap_or(0);
            if is_gather {
                // parent = the gather dependency's source (if any)
                let parent = first.deps().iter().find_map(|d| {
                    let dep = schedule.event(*d);
                    (dep.op == CollectiveOp::Gather && dep.dst == node_id).then_some(dep.src)
                });
                // aggregation deps: reduce deliveries gating the origin
                let mut aggregation_from: Vec<NodeId> = first
                    .deps()
                    .iter()
                    .filter_map(|d| {
                        let dep = schedule.event(*d);
                        (dep.op == CollectiveOp::Reduce && dep.dst == node_id).then_some(dep.src)
                    })
                    .collect();
                aggregation_from.sort_unstable();
                aggregation_from.dedup();
                let children = events.iter().map(|e| e.dst).collect();
                entries.push(TableEntry {
                    op: TableOp::Gather,
                    flow: Some(FlowId(flow)),
                    parent,
                    children,
                    aggregation_from,
                    step,
                    start_addr,
                    size,
                });
            } else {
                for e in events {
                    let children: Vec<NodeId> = e
                        .deps()
                        .iter()
                        .filter_map(|d| {
                            let dep = schedule.event(*d);
                            (dep.dst == node_id).then_some(dep.src)
                        })
                        .collect();
                    entries.push(TableEntry {
                        op: TableOp::Reduce,
                        flow: Some(FlowId(flow)),
                        parent: Some(e.dst),
                        aggregation_from: children.clone(),
                        children,
                        step,
                        start_addr,
                        size: e.bytes(total_bytes, segs),
                    });
                }
            }
        }
        entries.sort_by_key(|e| e.step);
        // Insert NOPs for idle steps before the final send, so the
        // timestep counter advances in lockstep.
        let mut filled = Vec::new();
        let mut expected_step = 1;
        for entry in entries {
            while expected_step < entry.step {
                filled.push(TableEntry {
                    op: TableOp::Nop,
                    flow: None,
                    parent: None,
                    children: Vec::new(),
                    aggregation_from: Vec::new(),
                    step: expected_step,
                    start_addr: 0,
                    size: 0,
                });
                expected_step += 1;
            }
            expected_step = entry.step + 1;
            filled.push(entry);
        }
        tables[node].entries = filled;
    }
    tables
}

impl fmt::Display for ScheduleTable {
    /// Renders the table in the paper's Fig. 5 layout.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Accelerator {}", self.node.index())?;
        writeln!(
            f,
            "{:<7} {:<6} {:<7} {:<12} {:<5} {:<10} {:<8}",
            "Op", "FlowID", "Parent", "Children", "Step", "StartAddr", "Size"
        )?;
        for e in &self.entries {
            let flow = e.flow.map_or("-".to_string(), |fl| fl.0.to_string());
            let parent = e.parent.map_or("nil".to_string(), |p| p.index().to_string());
            let children = if e.children.is_empty() {
                "nil".to_string()
            } else {
                e.children
                    .iter()
                    .map(|c| c.index().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            writeln!(
                f,
                "{:<7} {:<6} {:<7} {:<12} {:<5} {:<10} {:<8}",
                e.op.to_string(),
                flow,
                parent,
                children,
                e.step,
                e.start_addr,
                e.size
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AllReduce, MultiTree};
    use mt_topology::Topology;

    fn mesh22_tables() -> Vec<ScheduleTable> {
        let topo = Topology::mesh(2, 2);
        let s = MultiTree::default().build(&topo).unwrap();
        build_tables(&s, 4096)
    }

    #[test]
    fn one_table_per_node() {
        let tables = mesh22_tables();
        assert_eq!(tables.len(), 4);
        for (i, t) in tables.iter().enumerate() {
            assert_eq!(t.node.index(), i);
        }
    }

    #[test]
    fn entry_counts_match_paper_structure() {
        // Fig. 5: each accelerator has 3 Reduce sends + 2 Gather entries
        // (one root fan-out + one forward), modulo tree shapes. At minimum:
        // every node sends 3 reduces (member of 3 other trees) and is root
        // of its own gather.
        let tables = mesh22_tables();
        for t in &tables {
            let reduces = t
                .entries
                .iter()
                .filter(|e| e.op == TableOp::Reduce)
                .count();
            assert_eq!(reduces, 3, "node {} reduce entries", t.node);
            let root_gathers = t
                .entries
                .iter()
                .filter(|e| e.op == TableOp::Gather && e.parent.is_none())
                .count();
            assert_eq!(root_gathers, 1, "node {} must fan out its own tree", t.node);
        }
    }

    #[test]
    fn reduce_entries_reference_tree_children() {
        let topo = Topology::mesh(2, 2);
        let s = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&s, 4096);
        // a reduce entry's children must be real senders to this node
        for t in &tables {
            for e in t.entries.iter().filter(|e| e.op == TableOp::Reduce) {
                for c in &e.children {
                    assert!(s.events().any(|ev| ev.src == *c && ev.dst == t.node));
                }
            }
        }
    }

    #[test]
    fn table_overhead_matches_paper_estimate() {
        // Paper §V-A: 64-node system, 128 entries/table, ~200 bits each,
        // ~3.2 KB per table. Our entry layout lands in the same ballpark.
        let topo = Topology::torus(8, 8);
        let s = MultiTree::default().build(&topo).unwrap();
        let tables = build_tables(&s, 64 << 20);
        let t = &tables[0];
        // children slots = 4 (torus radix), as footnote 3 prescribes
        let bits = t.size_bits(64, 4);
        let bytes = bits / 8;
        assert!(
            bytes < 8 * 1024,
            "table should be a few KB, got {bytes} bytes"
        );
    }

    #[test]
    fn nops_fill_idle_steps() {
        let tables = mesh22_tables();
        for t in &tables {
            let mut prev = 0;
            for e in &t.entries {
                assert!(
                    e.step == prev || e.step == prev + 1,
                    "step gap without NOP at node {}: {} -> {}",
                    t.node,
                    prev,
                    e.step
                );
                prev = e.step;
            }
        }
    }

    #[test]
    fn display_renders_fig5_layout() {
        let tables = mesh22_tables();
        let text = tables[0].to_string();
        assert!(text.contains("Accelerator 0"));
        assert!(text.contains("Reduce"));
        assert!(text.contains("Gather"));
        assert!(text.contains("FlowID"));
    }
}
