//! Semantic all-reduce verification.
//!
//! [`verify_schedule`] symbolically executes a [`CommSchedule`] and proves
//! that every node ends up with the contribution of **every** node for
//! **every** data segment — i.e. that the schedule really computes an
//! all-reduce, not merely that it moves bytes around.
//!
//! Two complementary executions run:
//!
//! 1. **Dependency-strict set dataflow** — the payload carried by an
//!    event is derived **only from its declared dependencies**, never
//!    from whatever happens to sit in the sender's buffer at that point
//!    of the schedule. A schedule relying on an undeclared ordering (one
//!    that a timed network simulation could legally violate) fails here —
//!    exactly the class of bug the paper's lockstep hardware prevents.
//! 2. **Exact numeric execution** ([`execute_numeric`]) — buffers hold
//!    integers-in-`f64`; `Reduce` adds, `Gather` overwrites. Every node
//!    must end with the *exact* sum of all contributions, which catches
//!    double-counting (a contribution delivered twice) that set semantics
//!    cannot distinguish from a single delivery.
//!
//! Both run on flat arrays: an origin set is `⌈n/64⌉` words inside one
//! `Vec<u64>`, and numeric buffers are one `n × segments` `f64` vector.

use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, EventId};
use crate::schedule::CommSchedule;

/// Statistics returned by a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Number of events executed.
    pub events: usize,
    /// Number of Gather events.
    pub gathers: usize,
    /// Number of Reduce events.
    pub reduces: usize,
}

/// Symbolically executes `schedule` and checks full-sum delivery.
///
/// Three properties are established:
///
/// 1. **Dependency sufficiency** — every event's payload, derived only
///    from its declared `deps`, is well defined;
/// 2. **All-reduce completion** — after all events, every node holds the
///    contribution of all `n` nodes for every segment;
/// 3. **Exact sums** — the lockstep numeric execution leaves every node
///    with the exact total in every segment, so no contribution is
///    dropped or counted twice.
///
/// A `Gather` is *not* required to carry fully reduced data: 2D-Ring's
/// intermediate row and column all-gathers broadcast partial sums by
/// design, and the later phase completes them. A premature broadcast is
/// therefore caught only when it changes a final buffer — the numeric
/// pass sees the overwrite, the set dataflow the missing origins.
///
/// # Errors
///
/// Returns [`AlgorithmError::VerificationFailed`] naming the first
/// violated property, or [`AlgorithmError::MalformedSchedule`] if the
/// schedule fails structural validation or an event depends on another
/// event of its own time step.
pub fn verify_schedule(schedule: &CommSchedule) -> Result<VerifyReport, AlgorithmError> {
    let all: Vec<mt_topology::NodeId> = (0..schedule.num_nodes())
        .map(mt_topology::NodeId::new)
        .collect();
    verify_allreduce_among(schedule, &all)
}

/// Verifies an all-reduce among a subset of the nodes (hybrid-parallel
/// training, paper §VII-B): only `participants` contribute data, and only
/// they must end with the full participant sum. Non-participant nodes may
/// appear inside event link paths (as relays) but never as event
/// endpoints.
///
/// # Errors
///
/// Same conditions as [`verify_schedule`], scoped to the subset.
pub fn verify_allreduce_among(
    schedule: &CommSchedule,
    participants: &[mt_topology::NodeId],
) -> Result<VerifyReport, AlgorithmError> {
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let required = node_mask(n, participants.iter().map(|p| p.index()));

    let flow = run_dataflow(schedule, |i| {
        let (src, dst) = (schedule.srcs()[i] as usize, schedule.dsts()[i] as usize);
        if has_bit(&required, src) && has_bit(&required, dst) {
            Ok(())
        } else {
            let e = schedule.event(EventId::new(i));
            Err(AlgorithmError::MalformedSchedule {
                detail: format!("{e} involves a non-participant endpoint"),
            })
        }
    })?;

    for p in participants {
        let node = p.index();
        for seg in 0..segs {
            let set = flow.set(node, seg);
            if !is_subset(&required, set) {
                return Err(AlgorithmError::VerificationFailed {
                    detail: format!(
                        "node {node} ends with {}/{} contributions for segment {seg}",
                        popcount(set),
                        participants.len()
                    ),
                });
            }
        }
    }
    // free the origin sets before the numeric pass allocates its own
    drop(flow);

    // --- exact numeric execution: catches double counting
    let finals = execute_numeric(schedule, &|node| {
        if has_bit(&required, node) {
            (node + 1) as f64
        } else {
            0.0
        }
    })?;
    let expected: f64 = participants.iter().map(|p| (p.index() + 1) as f64).sum();
    for p in participants {
        let row = &finals[p.index() * segs..][..segs];
        if let Some((seg, &got)) = row.iter().enumerate().find(|&(_, &v)| v != expected) {
            return Err(AlgorithmError::VerificationFailed {
                detail: format!(
                    "numeric execution: node {p} segment {seg} ends with {got}, expected {expected} \
                     (a contribution was dropped or double-counted)"
                ),
            });
        }
    }

    Ok(report(schedule))
}

/// Executes a schedule numerically in bulk-synchronous (lockstep) rounds:
/// every node's buffer starts at `initial(node)` for all segments; within
/// each time step all events read the **start-of-step** buffers (the
/// physical meaning of the paper's lockstep — a step's sends carry data
/// computed before the step's deliveries), then all deliveries apply in
/// event order: `Reduce` adds, `Gather` overwrites. Returns the final
/// values as one flat vector, node `i`'s segment `s` at
/// `i * total_segments + s`.
///
/// Values are integers stored in `f64` (exact below 2^53), so any
/// dropped or double-counted contribution changes the result exactly.
///
/// # Errors
///
/// Returns [`AlgorithmError::MalformedSchedule`] if an event depends on
/// another event of the same (or a later) time step — every algorithm in
/// this crate produces strictly earlier-step dependencies, which is what
/// makes the BSP rounds a legal serialization.
pub fn execute_numeric(
    schedule: &CommSchedule,
    initial: &dyn Fn(usize) -> f64,
) -> Result<Vec<f64>, AlgorithmError> {
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let mut buf: Vec<f64> = (0..n)
        .flat_map(|i| std::iter::repeat_n(initial(i), segs))
        .collect();

    // lockstep rounds serialize only strictly earlier-step dependencies
    let step_of = schedule.steps();
    for (i, &step) in step_of.iter().enumerate() {
        if let Some(d) = schedule.deps(i).iter().find(|d| step_of[d.index()] >= step) {
            return Err(AlgorithmError::MalformedSchedule {
                detail: format!(
                    "{} depends on {} of the same or a later step; \
                     lockstep rounds need strictly earlier-step deps",
                    schedule.event(EventId::new(i)),
                    schedule.event(*d)
                ),
            });
        }
    }

    // Counting sort by step into compact moves, stable so deliveries keep
    // event order: step s's moves sit at moves[bounds[s - 1]..bounds[s]].
    let steps = schedule.num_steps() as usize;
    let mut bounds = vec![0usize; steps + 1];
    for &step in step_of {
        bounds[step as usize] += 1;
    }
    for s in 1..=steps {
        bounds[s] += bounds[s - 1];
    }
    let mut moves = vec![Move::default(); step_of.len()];
    let mut next = bounds.clone();
    for (i, &step) in step_of.iter().enumerate() {
        let (slot, chunk) = (&mut next[step as usize - 1], schedule.chunks()[i]);
        moves[*slot] = Move {
            from: schedule.srcs()[i] as usize * segs + chunk.start as usize,
            to: schedule.dsts()[i] as usize * segs + chunk.start as usize,
            len: chunk.len(),
            gather: schedule.ops()[i] == CollectiveOp::Gather,
        };
        *slot += 1;
    }

    let mut payload: Vec<f64> = Vec::new();
    for s in 1..=steps {
        let step_moves = &moves[bounds[s - 1]..bounds[s]];
        // payloads from the start-of-step state
        payload.clear();
        for m in step_moves {
            payload.extend_from_slice(&buf[m.from..m.from + m.len as usize]);
        }
        // then all of the step's deliveries
        let mut at = 0;
        for m in step_moves {
            let len = m.len as usize;
            let dst = &mut buf[m.to..m.to + len];
            let src = &payload[at..at + len];
            at += len;
            if m.gather {
                dst.copy_from_slice(src);
            } else {
                dst.iter_mut().zip(src).for_each(|(d, s)| *d += s);
            }
        }
    }
    Ok(buf)
}

/// Memory-scalable all-reduce verification for very large machines.
///
/// The full symbolic verifier tracks an origin set of `⌈n/64⌉` words per
/// `(node, segment)` pair — `O(n² · segments / 64)` words, about
/// 128 GiB at 65536 nodes — so it cannot run at the scales the
/// hierarchical builder now reaches. This tier keeps the structural
/// validation, checks that every dependency lands on a strictly earlier
/// step (the property that makes the lockstep rounds a legal
/// serialization), and then runs **two** exact numeric executions
/// ([`execute_numeric`]) with independent contribution patterns,
/// requiring every node to end with the exact sum in every segment.
/// Memory is `O(n · segments)` values — ~134 MB at 65536 nodes with
/// 256 segments.
///
/// Contributions are distinct per node in both patterns, so any dropped
/// or double-counted contribution shifts at least one final sum; two
/// independent patterns must both be fooled for a bug to slip through.
/// The dependency-strict *set* dataflow property is not checked here —
/// it is pinned at smaller scales on the same builder by
/// [`verify_schedule`].
///
/// # Errors
///
/// Returns [`AlgorithmError::MalformedSchedule`] for structural or
/// dependency-ordering violations and
/// [`AlgorithmError::VerificationFailed`] when a final sum is wrong.
pub fn verify_allreduce_numeric(schedule: &CommSchedule) -> Result<VerifyReport, AlgorithmError> {
    schedule.validate()?;
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;

    // two independent integer contribution patterns, both exact in f64:
    // node ranks, and a multiplicative scramble of them
    let patterns: [&dyn Fn(usize) -> f64; 2] = [&|node| (node + 1) as f64, &|node| {
        ((node as u64).wrapping_mul(2_654_435_761) % (1 << 20) + 1) as f64
    }];
    for initial in patterns {
        let expected: f64 = (0..n).map(initial).sum();
        let finals = execute_numeric(schedule, initial)?;
        if let Some((at, &got)) = finals.iter().enumerate().find(|&(_, &v)| v != expected) {
            return Err(AlgorithmError::VerificationFailed {
                detail: format!(
                    "numeric execution: node {} segment {} ends with {got}, \
                     expected {expected} (a contribution was dropped or double-counted)",
                    at / segs,
                    at % segs
                ),
            });
        }
    }

    Ok(report(schedule))
}

/// The event counts of a schedule that verified.
fn report(schedule: &CommSchedule) -> VerifyReport {
    let events = schedule.num_events();
    let gathers = schedule.ops().iter().filter(|&&op| op == CollectiveOp::Gather).count();
    VerifyReport {
        events,
        gathers,
        reduces: events - gathers,
    }
}

/// One event as the numeric executor replays it: `len` values move from
/// flat buffer position `from` to `to`, added or (for a Gather) copied.
#[derive(Clone, Copy, Default)]
struct Move {
    from: usize,
    to: usize,
    len: u32,
    gather: bool,
}

/// Origin sets after a dependency-strict dataflow run ([`run_dataflow`]):
/// bit `o` of the set for `(node, seg)` means node's buffer holds origin
/// `o`'s contribution to segment `seg`.
pub(crate) struct Dataflow {
    segs: usize,
    words: usize,
    /// The set for `(node, seg)` is `state[(node * segs + seg) * words..][..words]`.
    state: Vec<u64>,
}

impl Dataflow {
    /// The origin set of `node`'s buffer for `seg`.
    pub(crate) fn set(&self, node: usize, seg: usize) -> &[u64] {
        &self.state[(node * self.segs + seg) * self.words..][..self.words]
    }
}

/// The words of an origin set holding exactly `nodes`, out of `n`.
pub(crate) fn node_mask(n: usize, nodes: impl IntoIterator<Item = usize>) -> Vec<u64> {
    let mut mask = vec![0u64; n.div_ceil(64)];
    for i in nodes {
        mask[i / 64] |= 1 << (i % 64);
    }
    mask
}

/// True if `set` contains every origin in `required`.
pub(crate) fn is_subset(required: &[u64], set: &[u64]) -> bool {
    required.iter().zip(set).all(|(r, s)| r & !s == 0)
}

fn has_bit(set: &[u64], i: usize) -> bool {
    set[i / 64] & (1 << (i % 64)) != 0
}

fn popcount(set: &[u64]) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Validates `schedule` and runs the dependency-strict set dataflow in
/// topological order, returning every buffer's final origin set.
///
/// An event's payload is derived only from its declared deps:
///
/// * a dep contributes only if it delivered to the event's sender, and
///   then only on the segments both chunks share (a dep that is not a
///   delivery to our sender only sequences time, e.g. "my previous send
///   finished");
/// * a `Reduce` payload always mixes in the sender's own partial;
/// * a `Gather` payload mixes in the sender's own partial only where the
///   broadcast *originates* (no incoming `Gather` dependency covers the
///   segment): the root of a broadcast tree sends its fully reduced local
///   buffer, while interior nodes forward exactly what they received.
///
/// `check(i)` sees each event id before its payload is derived; its first
/// error stops the run. Payloads live in one arena indexed by per-event
/// prefix offsets, so a dependency's contribution is a single slice OR.
///
/// # Errors
///
/// Structural validation failures, and whatever `check` returns.
pub(crate) fn run_dataflow(
    schedule: &CommSchedule,
    mut check: impl FnMut(usize) -> Result<(), AlgorithmError>,
) -> Result<Dataflow, AlgorithmError> {
    schedule.validate()?;
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let words = n.div_ceil(64);
    let (dst_of, chunks, ops) = (schedule.dsts(), schedule.chunks(), schedule.ops());

    let mut state = vec![0u64; n * segs * words];
    for node in 0..n {
        for seg in 0..segs {
            state[(node * segs + seg) * words + node / 64] |= 1 << (node % 64);
        }
    }
    // carried[at[e]..at[e + 1]]: the payload event e delivered
    let mut at = Vec::with_capacity(chunks.len() + 1);
    at.push(0usize);
    for c in chunks {
        at.push(at[at.len() - 1] + c.len() as usize * words);
    }
    let mut carried = vec![0u64; at[chunks.len()]];
    // which of the event's segments an incoming Gather dep covers
    let mut gather_fed: Vec<bool> = Vec::new();

    // columns, not event views: a full row touches a dozen arrays
    for (id, &chunk) in chunks.iter().enumerate() {
        check(id)?;
        let (earlier, rest) = carried.split_at_mut(at[id]);
        let payload = &mut rest[..at[id + 1] - at[id]];
        let (src, start) = (schedule.srcs()[id] as usize, chunk.start);
        gather_fed.clear();
        gather_fed.resize(chunk.len() as usize, false);

        for d in schedule.deps(id) {
            // the receiver column skips deps that only sequence time
            // (most of 2D-RING's) without reading their chunks
            if dst_of[d.index()] as usize != src {
                continue;
            }
            let dep_chunk = chunks[d.index()];
            let lo = start.max(dep_chunk.start);
            let hi = chunk.end.min(dep_chunk.end);
            if lo >= hi {
                continue;
            }
            let len = (hi - lo) as usize * words;
            let from = at[d.index()] + (lo - dep_chunk.start) as usize * words;
            let to = (lo - start) as usize * words;
            or_into(&mut payload[to..to + len], &earlier[from..from + len]);
            if ops[d.index()] == CollectiveOp::Gather {
                gather_fed[(lo - start) as usize..(hi - start) as usize].fill(true);
            }
        }

        let (w, bit) = (src / 64, 1u64 << (src % 64));
        for (set, fed) in payload.chunks_exact_mut(words).zip(&gather_fed) {
            if ops[id] == CollectiveOp::Reduce || !fed {
                set[w] |= bit;
            }
        }

        let base = (dst_of[id] as usize * segs + start as usize) * words;
        or_into(&mut state[base..base + payload.len()], payload);
    }

    Ok(Dataflow { segs, words, state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkRange;
    use crate::event::{CollectiveOp, EventId, FlowId};
    use mt_topology::NodeId;

    /// Hand-built 2-node all-reduce: each node reduces its segment to the
    /// other, then nothing more is needed (each node's buffer has both).
    #[test]
    fn two_node_exchange_verifies() {
        let mut s = CommSchedule::new("hand", 2, 1);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            1,
            vec![],
            None,
        );
        let r = verify_schedule(&s).unwrap();
        assert_eq!(r.events, 2);
        assert_eq!(r.reduces, 2);
    }

    /// 3-node chain reduce to node 2 then broadcast back: verifies, and the
    /// gather-completeness check passes.
    #[test]
    fn three_node_tree_verifies() {
        let mut s = CommSchedule::new("hand", 3, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        let r01 = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        let r12 = s.push_event(
            NodeId::new(1),
            NodeId::new(2),
            f,
            CollectiveOp::Reduce,
            c,
            2,
            vec![r01],
            None,
        );
        let g21 = s.push_event(
            NodeId::new(2),
            NodeId::new(1),
            f,
            CollectiveOp::Gather,
            c,
            3,
            vec![r12],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Gather,
            c,
            4,
            vec![g21],
            None,
        );
        let rep = verify_schedule(&s).unwrap();
        assert_eq!(rep.gathers, 2);
    }

    /// Missing dependency: node 1 forwards node 0's data without declaring
    /// the delivery as a dep -> the payload lacks node 0 -> failure.
    #[test]
    fn missing_dep_fails() {
        let mut s = CommSchedule::new("hand", 3, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        // forwards without dep on the delivery above
        s.push_event(
            NodeId::new(1),
            NodeId::new(2),
            f,
            CollectiveOp::Reduce,
            c,
            2,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(2),
            NodeId::new(0),
            f,
            CollectiveOp::Reduce,
            c,
            3,
            vec![EventId::new(1)],
            None,
        );
        assert!(verify_schedule(&s).is_err());
    }

    /// Premature broadcast: gathering before the reduction finished
    /// leaves wrong final values.
    #[test]
    fn premature_gather_fails() {
        let mut s = CommSchedule::new("hand", 3, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Gather,
            c,
            1,
            vec![],
            None,
        );
        assert!(verify_schedule(&s).is_err());
    }

    /// Double delivery: the same contribution reduced twice passes set
    /// semantics but must fail the numeric execution.
    #[test]
    fn double_count_fails_numerically() {
        let mut s = CommSchedule::new("hand", 2, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        // 0 -> 1 and 1 -> 0 complete the all-reduce...
        let a = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        // ...but an extra duplicate delivery double-counts at node 1
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            2,
            vec![a],
            None,
        );
        let err = verify_schedule(&s).unwrap_err();
        assert!(err.to_string().contains("double-counted"), "{err}");
    }

    /// The numeric executor itself.
    #[test]
    fn execute_numeric_semantics() {
        let mut s = CommSchedule::new("hand", 2, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Gather,
            c,
            2,
            vec![],
            None,
        );
        let out = execute_numeric(&s, &|node| (node as f64 + 1.0) * 10.0).unwrap();
        // node 1: 20 + 10 = 30 (reduce); node 0: overwritten to 30 (gather)
        assert_eq!(out, [30.0, 30.0]);
    }

    /// A premature broadcast that a correct broadcast later overwrites
    /// verifies: every buffer ends complete and the sums are exact. The
    /// verifier does not require a `Gather` to carry fully reduced data,
    /// because 2D-Ring broadcasts row and column partial sums by design.
    #[test]
    fn overwritten_premature_gather_verifies() {
        let mut s = CommSchedule::new("hand", 3, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        let mut ev = |src, dst, op, step, deps| {
            s.push_event(
                NodeId::new(src),
                NodeId::new(dst),
                f,
                op,
                c,
                step,
                deps,
                None,
            )
        };
        let r01 = ev(0, 1, CollectiveOp::Reduce, 1, vec![]);
        let r12 = ev(1, 2, CollectiveOp::Reduce, 2, vec![r01]);
        // node 1 holds {0, 1} here, not the full sum
        ev(1, 0, CollectiveOp::Gather, 2, vec![r01]);
        let g21 = ev(2, 1, CollectiveOp::Gather, 3, vec![r12]);
        ev(1, 0, CollectiveOp::Gather, 4, vec![g21]);
        let rep = verify_schedule(&s).unwrap();
        assert_eq!((rep.gathers, rep.reduces), (3, 2));
    }

    /// `validate` accepts a dependency on the same step, but lockstep
    /// rounds cannot serialize it: a typed error, not a panic.
    #[test]
    fn same_step_dependency_is_malformed() {
        let mut s = CommSchedule::new("hand", 2, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        let a = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![a],
            None,
        );
        for err in [
            verify_schedule(&s).unwrap_err(),
            verify_allreduce_numeric(&s).unwrap_err(),
            execute_numeric(&s, &|_| 1.0).unwrap_err(),
        ] {
            assert!(
                matches!(err, AlgorithmError::MalformedSchedule { .. }),
                "{err}"
            );
            assert!(err.to_string().contains("strictly earlier-step"), "{err}");
        }
    }

    /// Incomplete schedules (no events) fail the completion check for n>1.
    #[test]
    fn empty_schedule_fails_for_multiple_nodes() {
        let s = CommSchedule::new("hand", 2, 1);
        assert!(verify_schedule(&s).is_err());
    }

    /// A single-node schedule is trivially complete.
    #[test]
    fn single_node_trivially_verifies() {
        let s = CommSchedule::new("hand", 1, 1);
        assert!(verify_schedule(&s).is_ok());
    }
}
