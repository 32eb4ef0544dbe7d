//! Incremental MultiTree repair after link and node failures.
//!
//! The paper's dynamic-system story (§III-C1) is *rebuild from scratch*:
//! construction is fast, so when the allocation changes the algorithm
//! simply reruns. This module sharpens that into a fault-response path:
//! given the forest a healthy machine was running and the set of links
//! (or hosts) that died, only the trees that actually traverse a failed
//! link are torn down and regrown on the degraded topology — every
//! surviving tree keeps its exact shape and step assignments, and the
//! regrowth respects the per-step link capacity those frozen trees
//! already consume. The merged forest is lowered and re-verified like
//! any other schedule; if the incremental regrowth cannot make progress
//! (or verification rejects the result), the repair transparently falls
//! back to a full rebuild, and host failures fall back to the survivor
//! subset construction ([`MultiTree::build_among`]).
//!
//! Repair never panics on an unrepairable machine: a degraded topology
//! that can no longer connect the participants surfaces as the same
//! [`AlgorithmError::ConstructionFailed`] a from-scratch build would
//! produce.

use crate::algorithms::multitree::{
    lower_forest, try_add_direct_fast, Forest, ForestScratch, MultiTree, TreeBuild,
};
use crate::algorithms::AllReduce;
use crate::error::AlgorithmError;
use crate::schedule::CommSchedule;
use crate::verify::{verify_allreduce_among, verify_schedule};
use mt_topology::{LinkId, NodeId, Topology, Vertex};

/// How a repair was carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// Only the trees traversing a failed link were regrown; all other
    /// trees kept their shape and step assignments.
    Incremental,
    /// The whole forest was rebuilt from scratch on the degraded
    /// topology (indirect networks, or incremental regrowth could not
    /// complete / did not verify).
    FullRebuild,
    /// Hosts died: the schedule was rebuilt among the surviving nodes
    /// via the subset construction, relaying around the dead hosts.
    SurvivorSubset,
}

impl std::fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RepairStrategy::Incremental => "incremental",
            RepairStrategy::FullRebuild => "full-rebuild",
            RepairStrategy::SurvivorSubset => "survivor-subset",
        })
    }
}

/// Accounting for one repair: what was reused, what was rebuilt, and
/// whether the result re-verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The strategy that produced the final schedule.
    pub strategy: RepairStrategy,
    /// Trees that traversed a failed link (and were therefore torn
    /// down). Under [`RepairStrategy::FullRebuild`] and
    /// [`RepairStrategy::SurvivorSubset`] every tree counts as affected.
    pub affected_trees: usize,
    /// Trees in the forest.
    pub total_trees: usize,
    /// Edges inherited unchanged from the healthy forest — the work the
    /// incremental path saved.
    pub reused_edges: usize,
    /// Edges (re)constructed by the repair — its rebuild cost.
    pub rebuilt_edges: usize,
    /// Schedule steps of the healthy schedule (2x the forest's
    /// construction steps).
    pub steps_before: u32,
    /// Schedule steps after repair.
    pub steps_after: u32,
    /// The repaired schedule passed the reduction-correctness verifier.
    /// Always true for a returned repair (failures fall back or error);
    /// kept explicit so callers can assert it end-to-end.
    pub verified: bool,
}

/// A repaired schedule plus the degraded topology it runs on (link ids
/// are stable with the healthy topology: dead links are masked, never
/// compacted) and the repair accounting.
#[derive(Debug, Clone)]
pub struct RepairedSchedule {
    /// The re-verified schedule for the degraded machine.
    pub schedule: CommSchedule,
    /// The degraded topology view the schedule was built against; hand
    /// this (not the healthy topology) to `PreparedSchedule`/engines.
    pub topology: Topology,
    /// The merged forest behind the schedule (`None` for the survivor
    /// subset path, whose forest spans relays rather than the full
    /// machine).
    pub forest: Option<Forest>,
    /// What the repair did and what it cost.
    pub report: RepairReport,
}

/// Upper bound on regrowth steps before declaring the incremental path
/// stuck, as a multiple of the healthy forest's construction steps.
const REGROW_STEP_FACTOR: u32 = 4;

/// Repairs `forest` (built by `mt` on the healthy `topo`) after
/// `dead_links` and `dead_nodes` failed.
///
/// Trees whose edges traverse a dead link — or whose reduce phase would
/// reverse onto one (an edge is conservatively affected when any
/// reverse of a path link is dead, the "both directions of the cable"
/// case) — are regrown from their bare roots on the degraded topology,
/// step by step, against the residual per-step link capacity of the
/// frozen trees. Dead hosts switch to the survivor-subset construction;
/// indirect networks and stuck regrowth fall back to a full rebuild.
/// With no failures at all, `forest` is lowered as it stands. Every
/// returned schedule has passed the reduction-correctness verifier.
///
/// # Errors
///
/// Returns [`AlgorithmError::InvalidFaultPlan`] for out-of-range link or
/// node ids, and [`AlgorithmError::ConstructionFailed`] when the
/// degraded machine genuinely cannot run the collective (e.g. it is
/// disconnected) — never panics.
pub fn repair_multitree(
    mt: &MultiTree,
    topo: &Topology,
    forest: &Forest,
    dead_links: &[LinkId],
    dead_nodes: &[NodeId],
) -> Result<RepairedSchedule, AlgorithmError> {
    if let Some(bad) = dead_links.iter().find(|l| l.index() >= topo.num_links()) {
        return Err(AlgorithmError::InvalidFaultPlan {
            detail: format!(
                "dead link {} out of range ({} links)",
                bad.index(),
                topo.num_links()
            ),
        });
    }
    if let Some(bad) = dead_nodes.iter().find(|d| d.index() >= topo.num_nodes()) {
        return Err(AlgorithmError::InvalidFaultPlan {
            detail: format!(
                "dead node {} out of range ({} nodes)",
                bad.index(),
                topo.num_nodes()
            ),
        });
    }

    let mut degraded = topo.without_links(dead_links);
    for &d in dead_nodes {
        degraded = degraded.without_vertex(Vertex::Node(d));
    }
    let steps_before = forest.total_steps * 2;

    if dead_links.is_empty() && dead_nodes.is_empty() {
        return lower_unchanged(mt, degraded, forest, steps_before);
    }

    if !dead_nodes.is_empty() {
        return repair_survivor_subset(mt, topo, degraded, forest, dead_nodes, steps_before);
    }

    if !topo.is_direct() {
        // the indirect construction allocates whole relay paths whose
        // interaction with frozen trees is not step-local; rebuild
        return full_rebuild(mt, degraded, forest, steps_before, forest.trees.len());
    }

    // --- which trees does the failure actually touch?
    let mut dead = vec![false; topo.num_links()];
    for &l in dead_links {
        dead[l.index()] = true;
    }
    let edge_affected = |path: &[LinkId]| {
        path.iter().any(|&l| {
            if dead[l.index()] {
                return true;
            }
            // the reduce phase reverses this hop; a dead reverse link
            // (the other direction of a cut cable) breaks it as surely
            let link = topo.link(l);
            topo.out_links(link.dst)
                .iter()
                .any(|&r| topo.link(r).dst == link.src && dead[r.index()])
        })
    };
    let affected: Vec<bool> = forest
        .trees
        .iter()
        .map(|t| t.edges.iter().any(|e| edge_affected(&e.path)))
        .collect();
    let affected_trees = affected.iter().filter(|&&a| a).count();

    match regrow_affected(topo, &degraded, forest, &affected, mt.bandwidth_aware) {
        Some(merged) => {
            let mut s = CommSchedule::new("multitree-repair", topo.num_nodes(), topo.num_nodes().max(1) as u32);
            let lowered = lower_forest(&degraded, &merged, &mut s, &|root| root.index() as u32)
                .is_ok()
                && verify_schedule(&s).is_ok();
            if lowered {
                let reused_edges = forest
                    .trees
                    .iter()
                    .zip(&affected)
                    .filter(|(_, &a)| !a)
                    .map(|(t, _)| t.edges.len())
                    .sum();
                let rebuilt_edges = merged
                    .trees
                    .iter()
                    .zip(&affected)
                    .filter(|(_, &a)| a)
                    .map(|(t, _)| t.edges.len())
                    .sum();
                let report = RepairReport {
                    strategy: RepairStrategy::Incremental,
                    affected_trees,
                    total_trees: merged.trees.len(),
                    reused_edges,
                    rebuilt_edges,
                    steps_before,
                    steps_after: s.num_steps(),
                    verified: true,
                };
                return Ok(RepairedSchedule {
                    schedule: s,
                    topology: degraded,
                    forest: Some(merged),
                    report,
                });
            }
            // lowering or verification rejected the merged forest (e.g.
            // no free reverse link for a regrown edge): fall back
            full_rebuild(mt, degraded, forest, steps_before, affected_trees)
        }
        None => full_rebuild(mt, degraded, forest, steps_before, affected_trees),
    }
}

/// Regrows the affected trees from bare roots on `degraded`, freezing
/// everything else; returns the merged forest, or `None` when a fresh
/// step makes no progress (the incremental path cannot complete).
fn regrow_affected(
    topo: &Topology,
    degraded: &Topology,
    forest: &Forest,
    affected: &[bool],
    bandwidth_aware: bool,
) -> Option<Forest> {
    let n = topo.num_nodes();
    let mut trees: Vec<TreeBuild> = Vec::with_capacity(forest.trees.len());
    for (tree, &hit) in forest.trees.iter().zip(affected) {
        let mut b = TreeBuild::new(tree.root, n);
        if !hit {
            for e in &tree.edges {
                b.add(e.parent, e.child, e.step, e.path.clone());
            }
        }
        trees.push(b);
    }

    // The frozen trees' per-step link charges, indexed once up front
    // instead of rescanning every frozen edge at every step.
    let mut charges: Vec<Vec<LinkId>> = vec![Vec::new(); forest.total_steps as usize + 1];
    for (tree, &hit) in trees.iter().zip(affected) {
        if hit {
            continue;
        }
        for e in &tree.edges {
            charges[e.step as usize].extend(e.path.iter().copied());
        }
    }

    let mut s = ForestScratch::new();
    s.reset(degraded, n);
    if bandwidth_aware {
        s.enable_rate_accrual(degraded);
    }
    s.reset_sat(n);
    for (ti, &hit) in affected.iter().enumerate() {
        if hit {
            s.sat[ti].init_root(degraded, &trees[ti]);
            if !trees[ti].complete(n) {
                s.active.push(ti);
            }
        }
    }

    let stall_limit = s.stall_allowance();
    let mut stalled = 0u32;
    let max_steps = (forest.total_steps.max(1)) * REGROW_STEP_FACTOR + 1
        + if stall_limit > 1 { stall_limit } else { 0 };
    let mut t: u32 = 0;
    while !s.active.is_empty() {
        t += 1;
        if t > max_steps {
            return None;
        }
        // fresh per-step capacities, less what the frozen trees already
        // committed at this step
        s.reset_pool(t);
        if let Some(step_charges) = charges.get(t as usize) {
            for &l in step_charges {
                s.pool[l.index()] = s.pool[l.index()].saturating_sub(1);
            }
        }
        let mut added_this_step = false;
        let mut progress = true;
        while progress {
            progress = false;
            let mut completed = false;
            for idx in 0..s.active.len() {
                let ti = s.active[idx];
                if trees[ti].complete(n) {
                    continue;
                }
                if try_add_direct_fast(
                    degraded,
                    &mut trees[ti],
                    t,
                    &mut s.pool,
                    &mut s.cursor[ti],
                    &mut s.sat[ti],
                    &s.rate_adj,
                ) {
                    progress = true;
                    added_this_step = true;
                    if trees[ti].complete(n) {
                        completed = true;
                    }
                }
            }
            if completed {
                s.active.retain(|&i| !trees[i].complete(n));
            }
        }
        if added_this_step {
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= stall_limit {
                return None;
            }
        }
    }

    let total_steps = trees
        .iter()
        .flat_map(|tr| tr.edges.iter().map(|e| e.step))
        .max()
        .unwrap_or(0)
        .max(forest.total_steps);
    Some(Forest {
        trees: trees.into_iter().map(TreeBuild::finish).collect(),
        total_steps,
    })
}

/// The pre-optimization regrowth, kept verbatim so tests can assert the
/// fast walker reproduces the incremental repair bit for bit.
#[cfg(test)]
fn regrow_affected_reference(
    topo: &Topology,
    degraded: &Topology,
    forest: &Forest,
    affected: &[bool],
) -> Option<Forest> {
    let n = topo.num_nodes();
    let mut trees: Vec<TreeBuild> = Vec::with_capacity(forest.trees.len());
    for (tree, &hit) in forest.trees.iter().zip(affected) {
        let mut b = TreeBuild::new(tree.root, n);
        if !hit {
            for e in &tree.edges {
                b.add(e.parent, e.child, e.step, e.path.clone());
            }
        }
        trees.push(b);
    }

    let max_steps = (forest.total_steps.max(1)) * REGROW_STEP_FACTOR + 1;
    let mut t: u32 = 0;
    while trees.iter().any(|tr| !tr.complete(n)) {
        t += 1;
        if t > max_steps {
            return None;
        }
        let mut pool: Vec<u32> = degraded.links().iter().map(|l| l.capacity).collect();
        for (tree, &hit) in trees.iter().zip(affected) {
            if hit {
                continue;
            }
            for e in tree.edges.iter().filter(|e| e.step == t) {
                for &l in &e.path {
                    pool[l.index()] = pool[l.index()].saturating_sub(1);
                }
            }
        }
        let mut added_this_step = false;
        let mut progress = true;
        while progress {
            progress = false;
            for (ti, &hit) in affected.iter().enumerate() {
                if !hit || trees[ti].complete(n) {
                    continue;
                }
                if MultiTree::try_add_direct(degraded, &mut trees[ti], t, &mut pool) {
                    progress = true;
                    added_this_step = true;
                }
            }
        }
        if !added_this_step {
            return None;
        }
    }

    let total_steps = trees
        .iter()
        .flat_map(|tr| tr.edges.iter().map(|e| e.step))
        .max()
        .unwrap_or(0)
        .max(forest.total_steps);
    Some(Forest {
        trees: trees.into_iter().map(TreeBuild::finish).collect(),
        total_steps,
    })
}

/// The empty-delta path: nothing failed, so the given forest is lowered
/// and verified as it stands instead of being regrown (direct fabrics) or
/// rebuilt (indirect ones). The schedule keeps the name each of those
/// paths gave it, so a healthy compile is the same bytes either way.
fn lower_unchanged(
    mt: &MultiTree,
    topo: Topology,
    forest: &Forest,
    steps_before: u32,
) -> Result<RepairedSchedule, AlgorithmError> {
    let name = if topo.is_direct() { "multitree-repair" } else { mt.name() };
    let n = topo.num_nodes();
    let mut s = CommSchedule::new(name, n, n.max(1) as u32);
    lower_forest(&topo, forest, &mut s, &|root| root.index() as u32)?;
    verify_schedule(&s)?;
    let report = RepairReport {
        strategy: RepairStrategy::Incremental,
        affected_trees: 0,
        total_trees: forest.trees.len(),
        reused_edges: forest.trees.iter().map(|t| t.edges.len()).sum(),
        rebuilt_edges: 0,
        steps_before,
        steps_after: s.num_steps(),
        verified: true,
    };
    Ok(RepairedSchedule {
        schedule: s,
        topology: topo,
        forest: Some(forest.clone()),
        report,
    })
}

/// The full-rebuild fallback: construct and verify from scratch on the
/// degraded topology.
fn full_rebuild(
    mt: &MultiTree,
    degraded: Topology,
    healthy: &Forest,
    steps_before: u32,
    affected_trees: usize,
) -> Result<RepairedSchedule, AlgorithmError> {
    // MultiTree's reduce phase mirrors broadcast over reverse links, so a
    // forward link whose reverse is dead is unusable in practice. If the
    // rebuild trips over that asymmetry, retry with each dead link's
    // reverse disabled too (i.e. treat the whole cable as failed).
    let (schedule, degraded) = match mt.build(&degraded) {
        Ok(s) => (s, degraded),
        Err(first_err) => {
            let mut reverses = Vec::new();
            for dead in degraded.disabled_links() {
                let l = degraded.link(dead);
                for &cand in degraded.out_links(l.dst) {
                    if degraded.link(cand).dst == l.src && !degraded.is_link_disabled(cand) {
                        reverses.push(cand);
                    }
                }
            }
            if reverses.is_empty() {
                return Err(first_err);
            }
            let symmetrized = degraded.without_links(&reverses);
            match mt.build(&symmetrized) {
                Ok(s) => (s, symmetrized),
                Err(_) => return Err(first_err),
            }
        }
    };
    verify_schedule(&schedule)?;
    let forest = mt.construct_forest(&degraded).ok();
    let rebuilt_edges = forest
        .as_ref()
        .map(|f| f.trees.iter().map(|t| t.edges.len()).sum())
        .unwrap_or(0);
    let report = RepairReport {
        strategy: RepairStrategy::FullRebuild,
        affected_trees,
        total_trees: healthy.trees.len(),
        reused_edges: 0,
        rebuilt_edges,
        steps_before,
        steps_after: schedule.num_steps(),
        verified: true,
    };
    Ok(RepairedSchedule {
        schedule,
        topology: degraded,
        forest,
        report,
    })
}

/// The host-failure path: rebuild among the survivors, relaying around
/// the dead hosts' (fully disabled) links.
fn repair_survivor_subset(
    mt: &MultiTree,
    topo: &Topology,
    degraded: Topology,
    healthy: &Forest,
    dead_nodes: &[NodeId],
    steps_before: u32,
) -> Result<RepairedSchedule, AlgorithmError> {
    let mut is_dead = vec![false; topo.num_nodes()];
    for d in dead_nodes {
        is_dead[d.index()] = true;
    }
    let survivors: Vec<NodeId> = (0..topo.num_nodes())
        .filter(|&i| !is_dead[i])
        .map(NodeId::new)
        .collect();
    if survivors.is_empty() {
        return Err(AlgorithmError::ConstructionFailed {
            algorithm: "multitree-repair",
            reason: "every node is dead; nothing to repair".into(),
        });
    }
    let schedule = mt.build_among(&degraded, &survivors)?;
    verify_allreduce_among(&schedule, &survivors)?;
    let steps_after = schedule.num_steps();
    let report = RepairReport {
        strategy: RepairStrategy::SurvivorSubset,
        affected_trees: healthy.trees.len(),
        total_trees: healthy.trees.len(),
        reused_edges: 0,
        rebuilt_edges: schedule.events().len() / 2,
        steps_before,
        steps_after,
        verified: true,
    };
    Ok(RepairedSchedule {
        schedule,
        topology: degraded,
        forest: None,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_cable(topo: &Topology) -> Vec<LinkId> {
        // both directions of the 0 <-> neighbor cable
        let l = LinkId::new(0);
        let link = topo.link(l);
        let mut dead = vec![l];
        dead.extend(
            topo.out_links(link.dst)
                .iter()
                .copied()
                .filter(|&r| topo.link(r).dst == link.src),
        );
        dead
    }

    fn cable_at(topo: &Topology, li: usize) -> Vec<LinkId> {
        let l = LinkId::new(li);
        let link = topo.link(l);
        let mut dead = vec![l];
        dead.extend(
            topo.out_links(link.dst)
                .iter()
                .copied()
                .filter(|&r| topo.link(r).dst == link.src),
        );
        dead
    }

    #[test]
    fn fast_regrow_matches_reference_regrow() {
        let cases: Vec<(Topology, MultiTree)> = vec![
            (Topology::torus(4, 4), MultiTree::default()),
            (Topology::torus(4, 4), MultiTree::with_remaining_height()),
            (Topology::mesh(4, 4), MultiTree::default()),
            (Topology::torus3d(4, 4, 4), MultiTree::default()),
            (Topology::hypercube(5), MultiTree::default()),
            (Topology::random_connected(14, 10, 3), MultiTree::default()),
        ];
        for (topo, mt) in cases {
            let forest = mt.construct_forest(&topo).unwrap();
            for li in [0, topo.num_links() / 2] {
                let dead_links = cable_at(&topo, li);
                let degraded = topo.without_links(&dead_links);
                let mut dead = vec![false; topo.num_links()];
                for &l in &dead_links {
                    dead[l.index()] = true;
                }
                let edge_affected = |path: &[LinkId]| {
                    path.iter().any(|&l| {
                        if dead[l.index()] {
                            return true;
                        }
                        let link = topo.link(l);
                        topo.out_links(link.dst)
                            .iter()
                            .any(|&r| topo.link(r).dst == link.src && dead[r.index()])
                    })
                };
                let affected: Vec<bool> = forest
                    .trees
                    .iter()
                    .map(|t| t.edges.iter().any(|e| edge_affected(&e.path)))
                    .collect();
                let fast = regrow_affected(&topo, &degraded, &forest, &affected, false);
                let reference = regrow_affected_reference(&topo, &degraded, &forest, &affected);
                assert_eq!(
                    fast,
                    reference,
                    "regrow diverged on {:?}, cut cable at link {li}",
                    topo.kind()
                );
            }
        }
    }

    #[test]
    fn single_cable_repair_is_incremental_and_verifies() {
        let topo = Topology::torus(4, 4);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        let dead = first_cable(&topo);
        let repaired = repair_multitree(&mt, &topo, &forest, &dead, &[]).unwrap();
        assert_eq!(repaired.report.strategy, RepairStrategy::Incremental);
        assert!(repaired.report.verified);
        assert!(
            repaired.report.affected_trees < repaired.report.total_trees,
            "one cable must not touch every tree: {:?}",
            repaired.report
        );
        assert!(repaired.report.reused_edges > 0);
        assert!(repaired.report.rebuilt_edges > 0);
        // no event of the repaired schedule traverses a dead link
        for e in repaired.schedule.events() {
            for l in e.path().unwrap() {
                assert!(!dead.contains(l), "event path uses dead link {l:?}");
            }
        }
    }

    #[test]
    fn repaired_schedule_runs_on_stable_link_ids() {
        // the degraded view keeps the healthy topology's link ids, so
        // paths in the repaired schedule index the same links vector
        let topo = Topology::torus(4, 4);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        let dead = first_cable(&topo);
        let repaired = repair_multitree(&mt, &topo, &forest, &dead, &[]).unwrap();
        assert_eq!(repaired.topology.num_links(), topo.num_links());
        for &l in &dead {
            assert!(repaired.topology.is_link_disabled(l));
        }
    }

    #[test]
    fn node_failure_uses_survivor_subset() {
        let topo = Topology::torus(4, 4);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        let repaired =
            repair_multitree(&mt, &topo, &forest, &[], &[NodeId::new(5)]).unwrap();
        assert_eq!(repaired.report.strategy, RepairStrategy::SurvivorSubset);
        assert!(repaired.report.verified);
        assert!(repaired
            .schedule
            .events()
            .all(|e| e.src.index() != 5 && e.dst.index() != 5));
    }

    #[test]
    fn unrepairable_machine_is_a_clean_error() {
        // cut every link out of node 0: the machine is disconnected
        let topo = Topology::mesh(2, 2);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        let dead: Vec<LinkId> = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.src == Vertex::Node(NodeId::new(0)) || l.dst == Vertex::Node(NodeId::new(0))
            })
            .map(|(i, _)| LinkId::new(i))
            .collect();
        let err = repair_multitree(&mt, &topo, &forest, &dead, &[]).unwrap_err();
        assert!(matches!(err, AlgorithmError::ConstructionFailed { .. }), "{err}");
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let topo = Topology::mesh(2, 2);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        let err =
            repair_multitree(&mt, &topo, &forest, &[LinkId::new(999)], &[]).unwrap_err();
        assert!(matches!(err, AlgorithmError::InvalidFaultPlan { .. }), "{err}");
        let err =
            repair_multitree(&mt, &topo, &forest, &[], &[NodeId::new(999)]).unwrap_err();
        assert!(matches!(err, AlgorithmError::InvalidFaultPlan { .. }), "{err}");
    }

    #[test]
    fn indirect_topology_falls_back_to_full_rebuild() {
        let topo = Topology::dgx2_like_16();
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        // one leaf->spine link dies (links 0..32 are node<->leaf, so 32 is
        // leaf0->spine0); three other spines keep the network connected
        let dead = [LinkId::new(32)];
        let repaired = repair_multitree(&mt, &topo, &forest, &dead, &[]).unwrap();
        assert_eq!(repaired.report.strategy, RepairStrategy::FullRebuild);
        assert!(repaired.report.verified);

        // a host's only uplink dying disconnects it: clean error, no panic
        let err = repair_multitree(&mt, &topo, &forest, &[LinkId::new(0)], &[]).unwrap_err();
        assert!(matches!(err, AlgorithmError::ConstructionFailed { .. }), "{err}");
    }

    /// An empty delta lowers the forest it was given: the schedule,
    /// topology and forest are exactly what regrowing nothing (direct
    /// fabrics) or rebuilding from scratch (indirect ones) produced.
    #[test]
    fn empty_delta_matches_regrow_and_rebuild_byte_for_byte() {
        let topo = Topology::torus(4, 4);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        let r = repair_multitree(&mt, &topo, &forest, &[], &[]).unwrap();
        let none = vec![false; forest.trees.len()];
        let merged = regrow_affected(&topo, &topo, &forest, &none, false).unwrap();
        let mut want = CommSchedule::new("multitree-repair", 16, 16);
        lower_forest(&topo, &merged, &mut want, &|root| root.index() as u32).unwrap();
        assert_eq!(r.schedule, want);
        assert_eq!(r.forest.as_ref(), Some(&merged));
        assert_eq!(format!("{:?}", r.topology), format!("{:?}", topo.without_links(&[])));

        for (mt, topo) in [
            (MultiTree::bandwidth_aware(), Topology::fattree_oversubscribed(4, 4)),
            (MultiTree::default(), Topology::dragonfly(4, 2)),
        ] {
            assert!(!topo.is_direct());
            let forest = mt.construct_forest(&topo).unwrap();
            let r = repair_multitree(&mt, &topo, &forest, &[], &[]).unwrap();
            assert_eq!(r.schedule, mt.build(&topo).unwrap());
            assert_eq!(r.schedule.algorithm(), "multitree");
            assert_eq!(r.forest, Some(mt.construct_forest(&topo).unwrap()));
            assert_eq!(format!("{:?}", r.topology), format!("{:?}", topo.without_links(&[])));
            assert!(r.report.verified);
        }
    }

    #[test]
    fn empty_failure_set_reproduces_a_verified_schedule() {
        let topo = Topology::torus(4, 4);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        let repaired = repair_multitree(&mt, &topo, &forest, &[], &[]).unwrap();
        assert_eq!(repaired.report.strategy, RepairStrategy::Incremental);
        assert_eq!(repaired.report.affected_trees, 0);
        assert_eq!(repaired.report.rebuilt_edges, 0);
        assert_eq!(repaired.report.steps_after, repaired.report.steps_before);
    }
}
