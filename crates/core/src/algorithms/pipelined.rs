//! Shared pipelined lowering for tree collections whose trees each carry
//! one data block streamed as sub-chunks (used by the Blink baseline and
//! the reduced-tree-count MultiTree of §VII-C).

use crate::algorithms::multitree::{reverse_path, ReverseSlots, TreeBuild};
use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, EventId, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{LinkId, NodeId, Topology};
use std::collections::HashMap;

/// Lowers `trees` (each spanning all nodes; edge `step` = child depth)
/// into a pipelined reduce + broadcast schedule: tree `ti` owns segments
/// `[ti*pc, (ti+1)*pc)`; sub-chunk `c` moves one level per lockstep step.
///
/// The schedule `s` must have been created with `trees.len() * pc`
/// segments.
pub(crate) fn lower_pipelined(
    topo: &Topology,
    trees: &[TreeBuild],
    pc: u32,
    s: &mut CommSchedule,
) -> Result<(), AlgorithmError> {
    let tot_rounds = {
        let max_h = trees
            .iter()
            .flat_map(|t| t.edges.iter().map(|e| e.step))
            .max()
            .unwrap_or(1);
        pc + max_h - 1
    };
    // reduce rounds are 1..=tot_rounds (c + ecc(child) ≤ pc + max_h - 1)
    let mut reverse_used = ReverseSlots::new(tot_rounds, topo.num_links());
    let mut rev: Vec<LinkId> = Vec::new();
    for (ti, tree) in trees.iter().enumerate() {
        let flow = FlowId(ti);
        let root = tree.root;
        // subtree heights (ecc) per node
        let mut ecc: HashMap<NodeId, u32> = HashMap::new();
        let mut edges: Vec<_> = tree.edges.iter().collect();
        edges.sort_by_key(|e| std::cmp::Reverse(e.step));
        for e in &edges {
            let child_ecc = *ecc.get(&e.child).unwrap_or(&0);
            let up = ecc.entry(e.parent).or_insert(0);
            *up = (*up).max(child_ecc + 1);
        }
        // --- reduce: sub-chunk c sent by node v at round c + ecc(v)
        let mut reduce_of: HashMap<(NodeId, u32), EventId> = HashMap::new();
        let mut reduces_into_root: Vec<Vec<EventId>> = vec![Vec::new(); pc as usize];
        let mut sends: Vec<(u32, &crate::algorithms::ForestEdge, u32)> = Vec::new();
        for e in &edges {
            let child_ecc = *ecc.get(&e.child).unwrap_or(&0);
            for c in 1..=pc {
                sends.push((c + child_ecc, e, c));
            }
        }
        sends.sort_by_key(|(round, e, _)| (*round, e.child));
        for (round, e, c) in &sends {
            let seg = ti as u32 * pc + (c - 1);
            let deps = tree
                .edges
                .iter()
                .filter(|x| x.parent == e.child)
                .map(|x| reduce_of[&(x.child, *c)]);
            rev.clear();
            reverse_path(topo, e, *round, &mut reverse_used, &mut rev)?;
            let id = s.push_event(
                e.child,
                e.parent,
                flow,
                CollectiveOp::Reduce,
                ChunkRange::single(seg),
                *round,
                deps,
                Some(&rev),
            );
            reduce_of.insert((e.child, *c), id);
            if e.parent == root {
                reduces_into_root[(*c - 1) as usize].push(id);
            }
        }
        // --- broadcast: sub-chunk c sent to a depth-d child at round
        // tot_rounds + c + (d - 1)
        let mut gather_of: HashMap<(NodeId, u32), EventId> = HashMap::new();
        let mut bcasts: Vec<(u32, &crate::algorithms::ForestEdge, u32)> = Vec::new();
        for e in tree.edges.iter() {
            for c in 1..=pc {
                bcasts.push((tot_rounds + c + (e.step - 1), e, c));
            }
        }
        bcasts.sort_by_key(|(round, e, _)| (*round, e.child));
        for (round, e, c) in &bcasts {
            let seg = ti as u32 * pc + (c - 1);
            let deps: &[EventId] = if e.parent == root {
                &reduces_into_root[(*c - 1) as usize]
            } else {
                std::slice::from_ref(&gather_of[&(e.parent, *c)])
            };
            let id = s.push_event(
                e.parent,
                e.child,
                flow,
                CollectiveOp::Gather,
                ChunkRange::single(seg),
                *round,
                deps.iter().copied(),
                Some(&e.path),
            );
            gather_of.insert((e.child, *c), id);
        }
    }
    Ok(())
}
