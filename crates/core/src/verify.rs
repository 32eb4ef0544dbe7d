//! Semantic all-reduce verification, in three tiers.
//!
//! Each tier proves that every node ends up with the contribution of
//! **every** node for **every** data segment — that a [`CommSchedule`]
//! really computes an all-reduce, not merely that it moves bytes around.
//!
//! 1. **Tree certificate** ([`certify_tree`]) — local checks in
//!    O(Σ chunk lengths + Σ dependency overlaps) time, with a 12-byte
//!    cell per `(node, segment)` and a u32 stamp per event. It accepts schedules whose every segment is one
//!    reduce in-tree plus one gather out-tree from the same root — the
//!    shape of the paper's Fig. 5 NI tables, and what RING, both
//!    DBTREEs, HD, HDRM, Blink and the MultiTree family build. It never
//!    rejects: any other shape is [`Certificate::NotTreeShaped`], and
//!    the next tier decides.
//! 2. **Symbolic plus numeric** ([`verify_allreduce_among`]) — for any
//!    schedule, two complementary executions:
//!    * a **dependency-strict set dataflow**: the payload carried by an
//!      event is derived **only from its declared dependencies**, never
//!      from whatever happens to sit in the sender's buffer at that point
//!      of the schedule. A schedule relying on an undeclared ordering (one
//!      that a timed network simulation could legally violate) fails
//!      here — exactly the class of bug the paper's lockstep hardware
//!      prevents;
//!    * an **exact numeric execution** ([`execute_numeric`]): buffers
//!      hold integers-in-`f64`; `Reduce` adds, `Gather` overwrites. Every
//!      node must end with the *exact* sum of all contributions, which
//!      catches double-counting (a contribution delivered twice) that set
//!      semantics cannot distinguish from a single delivery.
//!
//!    Both run on flat arrays: an origin set is `⌈n/64⌉` words inside
//!    one `Vec<u64>`, so the set dataflow needs `8·⌈n/64⌉·n·segments`
//!    bytes plus a payload arena, and the numeric buffers are one
//!    `n × segments` `f64` vector. Every such buffer is sized with
//!    checked arithmetic and reserved fallibly: a schedule too large to
//!    check gets [`AlgorithmError::ResourceExhausted`], not an abort.
//! 3. **Numeric only at scale** ([`verify_allreduce_numeric`]) — two
//!    exact numeric executions in O(n · segments) memory, for machines
//!    where tier 2's origin sets cannot be allocated.
//!
//! [`verify_schedule`] runs tier 1 and falls back to tier 2. Because the
//! certificate accepts only what tier 2 accepts and reports no error of
//! its own, every verdict and error message is tier 2's.

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

/// Proves that `schedule` computes an all-reduce among all its nodes.
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
/// A tree-shaped schedule is proven by [`certify_tree`] alone; any other
/// goes through [`verify_allreduce_among`] over every node, which also
/// produces every error.
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
/// violated property, [`AlgorithmError::MalformedSchedule`] if the
/// schedule fails structural validation or an event depends on another
/// event of its own time step, or [`AlgorithmError::ResourceExhausted`]
/// if the symbolic tier's buffers cannot be allocated.
pub fn verify_schedule(schedule: &CommSchedule) -> Result<VerifyReport, AlgorithmError> {
    if certify_tree(schedule) == Certificate::Certified {
        return Ok(report(schedule));
    }
    let all: Vec<mt_topology::NodeId> = (0..schedule.num_nodes())
        .map(mt_topology::NodeId::new)
        .collect();
    verify_allreduce_among(schedule, &all)
}

/// The outcome of [`certify_tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certificate {
    /// Every segment is one reduce in-tree plus one gather out-tree from
    /// the same root, with the dependencies that make it an all-reduce:
    /// [`verify_allreduce_among`] over all nodes accepts the schedule.
    Certified,
    /// Some local check failed. The schedule may still be a correct
    /// all-reduce (2D-RING's is not tree-shaped) or not; only the
    /// symbolic tier can tell.
    NotTreeShaped,
}

/// Certifies a tree-shaped all-reduce by local checks, in
/// O(Σ chunk lengths + Σ dependency overlaps) time.
///
/// For every segment `s` it checks that:
///
/// 1. every node but one root sends exactly one `Reduce` covering `s` and
///    receives exactly one `Gather` covering `s`; the root sends no
///    `Reduce` and receives no `Gather` on `s`;
/// 2. the `Reduce` out of `u` depends on every `Reduce` into `u` that
///    covers `s` (distinct dependencies are counted, so a duplicated one
///    does not stand in for a missing one);
/// 3. a `Gather` out of a non-root `p` depends on `p`'s one incoming
///    `Gather`, and a `Gather` out of the root depends on every `Reduce`
///    into the root;
///
/// and that every dependency of every event lies on a strictly earlier
/// step.
///
/// **Why this suffices.** Rule 2 and strict steps make steps rise along
/// every reduce parent chain, so the chains cannot cycle and each ends
/// at the root: the Reduces on `s` form one spanning in-tree. Rule 3
/// does the same for the Gathers read backwards, which form one spanning
/// out-tree from the root. Every contribution therefore reaches the root
/// exactly once, and the root's total reaches every node. Every delivery
/// into `u` on `s` is either a child's `Reduce`, strictly before `u`
/// sends its own (rule 2), or `u`'s single `Gather`, strictly after it
/// (the Gather descends from a root send that waited on `u`'s reduce
/// chain). So the set dataflow finds every origin in every buffer, each
/// `Reduce` reads exactly its subtree's sum in the lockstep numeric
/// execution, and each `Gather` overwrites with the full total: both
/// checks of [`verify_allreduce_among`] hold, and its validation does
/// too because no dependency points forward.
///
/// Implementation: a census of chunk lengths — `n − 1` Reduces and
/// `n − 1` Gathers per segment — refuses most other shapes, 2D-RING
/// among them, before any table exists. One walk over the events in id
/// order then keeps, per `(node, segment)`, the Reduces received, the
/// Gather received and whether the node has sent; it stamps each event's
/// distinct dependencies and checks rules 2 and 3 at each send. Because
/// dependencies point to lower ids, a tree that meets the rules also
/// meets the order the walk needs: what reaches a node on a segment from
/// below arrives before the node sends, so a late arrival, a second
/// Reduce out or a second Gather in stops the walk at once. A scan of
/// the cells then checks rule 1. The tables take [`certificate_bytes`].
/// A schedule whose tables cannot be allocated is `NotTreeShaped`, and
/// the symbolic tier reports the shortage.
pub fn certify_tree(schedule: &CommSchedule) -> Certificate {
    match check_tree(schedule) {
        Some(()) => Certificate::Certified,
        None => Certificate::NotTreeShaped,
    }
}

/// The bytes [`certify_tree`] allocates for `schedule` when its chunk
/// census passes: a 12-byte cell per `(node, segment)`, a u32 stamp per
/// event, and a u32 per segment of the longest chunk.
pub fn certificate_bytes(schedule: &CommSchedule) -> usize {
    let cells = schedule
        .num_nodes()
        .saturating_mul(schedule.total_segments() as usize);
    let longest = schedule.chunks().iter().map(|c| c.len() as usize).max();
    let stamps = 4 * schedule.num_events();
    cells
        .saturating_mul(std::mem::size_of::<Cell>())
        .saturating_add(stamps + 4 * longest.unwrap_or(0))
}

/// What [`certify_tree`] records per `(node, segment)` as it walks the
/// events in id order.
#[derive(Clone, Copy, Default)]
struct Cell {
    /// Reduces the node has received on the segment.
    reduces_in: u32,
    /// The Gather the node received on the segment, as event id + 1
    /// (0: none yet).
    gather_in: u32,
    /// The node has sent its Reduce on the segment.
    reduce_sent: bool,
    /// The node has sent a Gather on the segment.
    gather_sent: bool,
}

impl Cell {
    /// Records that the node sends `op` on the segment in the event
    /// stamped `mark`, whose distinct dependencies include `got` Reduces
    /// into the node; false if that breaks a tree rule.
    #[inline]
    fn send(&mut self, op: CollectiveOp, got: u32, stamp: &[u32], mark: u32) -> bool {
        let ok = if op == CollectiveOp::Reduce {
            // the one Reduce out of a non-root, after every child's
            !self.reduce_sent && !self.gather_sent && got == self.reduces_in
        } else if self.reduce_sent {
            // a non-root forwards the one Gather it received
            self.gather_in != 0 && stamp[self.gather_in as usize - 1] == mark
        } else {
            // the root broadcasts after every Reduce into it
            got == self.reduces_in
        };
        self.reduce_sent |= op == CollectiveOp::Reduce;
        self.gather_sent |= op == CollectiveOp::Gather;
        ok
    }

    /// Records that the node receives `op` on the segment from the event
    /// stamped `mark`; false if that breaks a tree rule.
    #[inline]
    fn receive(&mut self, op: CollectiveOp, mark: u32) -> bool {
        if op == CollectiveOp::Reduce {
            // every Reduce into a node precedes what the node sends
            self.reduces_in += 1;
            !self.reduce_sent && !self.gather_sent
        } else {
            let first = self.gather_in == 0;
            self.gather_in = mark;
            first
        }
    }
}

/// Stamps event `e`'s dependencies with `mark` (= `e + 1`) and passes
/// `fed` the chunk offsets `lo..hi` each distinct Reduce into `e`'s
/// sender shares with `e`; false if a dependency is not on an earlier
/// step.
#[inline]
fn scan_deps(
    schedule: &CommSchedule,
    e: usize,
    stamp: &mut [u32],
    mark: u32,
    mut fed: impl FnMut(usize, usize),
) -> bool {
    let (chunks, steps) = (schedule.chunks(), schedule.steps());
    let (c, src) = (chunks[e], schedule.srcs()[e]);
    let mut earlier = true;
    for d in schedule.deps(e) {
        let d = d.index();
        earlier &= steps[d] < steps[e];
        let first = std::mem::replace(&mut stamp[d], mark) != mark;
        if first && schedule.ops()[d] == CollectiveOp::Reduce && schedule.dsts()[d] == src {
            let (lo, hi) = (c.start.max(chunks[d].start), c.end.min(chunks[d].end));
            if lo < hi {
                fed((lo - c.start) as usize, (hi - c.start) as usize);
            }
        }
    }
    earlier
}

/// The checks of [`certify_tree`]; `None` at the first that fails.
fn check_tree(schedule: &CommSchedule) -> Option<()> {
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let (srcs, dsts, ops, chunks) = (
        schedule.srcs(),
        schedule.dsts(),
        schedule.ops(),
        schedule.chunks(),
    );
    // stamps (event id + 1) fit a u32, and chunk-length sums a u64
    let events = chunks.len();
    u32::try_from(events).ok()?;
    let covered: u64 = chunks.iter().map(|c| u64::from(c.len())).sum();
    let gathered: u64 = chunks
        .iter()
        .zip(ops)
        .map(|(c, &op)| u64::from(c.len()) * u64::from(op == CollectiveOp::Gather))
        .sum();
    let want = (n as u64 - 1).checked_mul(segs as u64)?;
    if gathered != want || covered - gathered != want {
        return None;
    }
    if n == 1 {
        // no events at all: one node already holds the sum
        return Some(());
    }

    // per (node, segment) cell `node * segs + seg`
    let mut table: Vec<Cell> = zeroed(n.checked_mul(segs), "certificate table").ok()?;
    let mut stamp: Vec<u32> = zeroed(Some(events), "certificate stamps").ok()?;
    // for a longer chunk, the distinct Reduces into the sender among the
    // deps per segment; the checks take each count back to zero
    let mut fed: Vec<u32> = Vec::new();
    for (e, &c) in chunks.iter().enumerate() {
        let len = c.len() as usize;
        let out = srcs[e] as usize * segs + c.start as usize;
        let into = dsts[e] as usize * segs + c.start as usize;
        let (op, mark) = (ops[e], e as u32 + 1);
        let ok = if len == 1 {
            let mut got = 0;
            scan_deps(schedule, e, &mut stamp, mark, |_, _| got += 1)
                && table[out].send(op, got, &stamp, mark)
                && table[into].receive(op, mark)
        } else {
            if fed.len() < len {
                fed.resize(len, 0);
            }
            scan_deps(schedule, e, &mut stamp, mark, |lo, hi| {
                fed[lo..hi].iter_mut().for_each(|f| *f += 1)
            }) && fed[..len].iter_mut().enumerate().all(|(k, got)| {
                table[out + k].send(op, std::mem::take(got), &stamp, mark)
                    && table[into + k].receive(op, mark)
            })
        };
        if !ok {
            return None;
        }
    }
    // on each segment, the nodes that send a Reduce are the ones that
    // receive a Gather: all but the census's one root
    table
        .iter()
        .all(|t| t.reduce_sent == (t.gather_in != 0))
        .then_some(())
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
/// makes the BSP rounds a legal serialization — and
/// [`AlgorithmError::ResourceExhausted`] if the `n × segments` buffer
/// cannot be allocated.
pub fn execute_numeric(
    schedule: &CommSchedule,
    initial: &dyn Fn(usize) -> f64,
) -> Result<Vec<f64>, AlgorithmError> {
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

    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let mut buf: Vec<f64> = reserve(n.checked_mul(segs), "numeric buffer")?;
    buf.extend((0..n).flat_map(|i| std::iter::repeat_n(initial(i), segs)));

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
/// The dependency-strict *set* dataflow property is not checked here.
/// For a tree-shaped schedule, [`certify_tree`] proves it in
/// O(n · segments) memory at any scale — `64k_smoke` runs both on the
/// 65536-node hierarchical build — and [`verify_schedule`] pins it for
/// any other shape where the origin sets fit.
///
/// # Errors
///
/// Returns [`AlgorithmError::MalformedSchedule`] for structural or
/// dependency-ordering violations,
/// [`AlgorithmError::VerificationFailed`] when a final sum is wrong, and
/// [`AlgorithmError::ResourceExhausted`] when the buffer cannot be
/// allocated.
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
        let finals = execute_numeric(schedule, initial)?;
        let expected: f64 = (0..n).map(initial).sum();
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

/// An empty vector with room for exactly `len` items (`None`: the count
/// overflowed), reserved fallibly: a typed error where `vec!` would abort
/// the process on a schedule too large to check.
fn reserve<T>(len: Option<usize>, what: &str) -> Result<Vec<T>, AlgorithmError> {
    let bytes = len.and_then(|l| l.checked_mul(std::mem::size_of::<T>()));
    let (Some(len), Some(bytes)) = (len, bytes) else {
        return Err(AlgorithmError::ResourceExhausted {
            detail: format!("the verifier's {what} needs more than {} bytes", usize::MAX),
        });
    };
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|e| AlgorithmError::ResourceExhausted {
            detail: format!("cannot allocate the verifier's {what} ({bytes} bytes): {e}"),
        })?;
    Ok(v)
}

/// [`reserve`]d, then filled with `len` default (zero) values.
fn zeroed<T: Clone + Default>(len: Option<usize>, what: &str) -> Result<Vec<T>, AlgorithmError> {
    let mut v = reserve(len, what)?;
    v.resize(len.unwrap_or(0), T::default());
    Ok(v)
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
/// Structural validation failures, whatever `check` returns, and
/// [`AlgorithmError::ResourceExhausted`] when the origin sets or the
/// payload arena cannot be allocated.
pub(crate) fn run_dataflow(
    schedule: &CommSchedule,
    mut check: impl FnMut(usize) -> Result<(), AlgorithmError>,
) -> Result<Dataflow, AlgorithmError> {
    schedule.validate()?;
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let words = n.div_ceil(64);
    let (dst_of, chunks, ops) = (schedule.dsts(), schedule.chunks(), schedule.ops());

    let cells = n.checked_mul(segs);
    let mut state: Vec<u64> = zeroed(cells.and_then(|c| c.checked_mul(words)), "origin sets")?;
    for node in 0..n {
        for seg in 0..segs {
            state[(node * segs + seg) * words + node / 64] |= 1 << (node % 64);
        }
    }
    // carried[at[e]..at[e + 1]]: the payload event e delivered
    let mut at = Vec::with_capacity(chunks.len() + 1);
    at.push(0usize);
    let mut end = Some(0usize);
    for c in chunks {
        end = end.and_then(|e| e.checked_add((c.len() as usize).checked_mul(words)?));
        at.push(end.unwrap_or(0));
    }
    let mut carried: Vec<u64> = zeroed(end, "payload arena")?;
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
        assert_eq!(certify_tree(&s), Certificate::Certified);
    }

    /// The hand-built chain is a tree; the exchange (no root), the
    /// overwritten premature broadcast (two Gathers into node 0) and the
    /// same-step dependency are not, and the symbolic tier decides them.
    #[test]
    fn only_tree_shaped_hand_schedules_certify() {
        let c = ChunkRange::single(0);
        let mut tree = CommSchedule::new("hand", 3, 1);
        let mut ev = |src, dst, op, step, deps: Vec<EventId>| {
            tree.push_event(NodeId::new(src), NodeId::new(dst), FlowId(0), op, c, step, deps, None)
        };
        let r01 = ev(0, 1, CollectiveOp::Reduce, 1, vec![]);
        let r12 = ev(1, 2, CollectiveOp::Reduce, 2, vec![r01]);
        let g21 = ev(2, 1, CollectiveOp::Gather, 3, vec![r12]);
        ev(1, 0, CollectiveOp::Gather, 4, vec![g21, g21]);
        assert_eq!(certify_tree(&tree), Certificate::Certified);
        assert_eq!(verify_schedule(&tree), verify_allreduce_among(&tree, &all(&tree)));

        let mut exchange = CommSchedule::new("hand", 2, 1);
        for (src, dst) in [(0, 1), (1, 0)] {
            let (src, dst) = (NodeId::new(src), NodeId::new(dst));
            exchange.push_event(src, dst, FlowId(0), CollectiveOp::Reduce, c, 1, vec![], None);
        }
        assert_eq!(certify_tree(&exchange), Certificate::NotTreeShaped);
        assert!(verify_schedule(&exchange).is_ok());
        assert_eq!(
            certify_tree(&CommSchedule::new("hand", 2, 1)),
            Certificate::NotTreeShaped
        );
    }

    /// The census, the shape pass and the dependency pass each refuse a
    /// broken variant of the 3-node tree.
    #[test]
    fn each_certificate_rule_refuses() {
        type Ev = (usize, usize, CollectiveOp, u32, Vec<usize>);
        let build = |events: &[Ev]| {
            let mut s = CommSchedule::new("hand", 3, 1);
            for (src, dst, op, step, deps) in events {
                let deps = deps.iter().map(|&d| EventId::new(d));
                let (src, dst) = (NodeId::new(*src), NodeId::new(*dst));
                s.push_event(src, dst, FlowId(0), *op, ChunkRange::single(0), *step, deps, None);
            }
            s
        };
        let (r, g) = (CollectiveOp::Reduce, CollectiveOp::Gather);
        let good: Vec<Ev> = vec![
            (0, 1, r, 1, vec![]),
            (1, 2, r, 2, vec![0]),
            (2, 1, g, 3, vec![1]),
            (1, 0, g, 4, vec![2]),
        ];
        assert_eq!(certify_tree(&build(&good)), Certificate::Certified);
        let broken: [(usize, Ev); 6] = [
            // the Reduce out of 1 forgets its child
            (1, (1, 2, r, 2, vec![])),
            // the root broadcasts without waiting for its child
            (2, (2, 1, g, 3, vec![])),
            // node 1 forwards without the Gather it received
            (3, (1, 0, g, 4, vec![1])),
            // a dependency within its own step
            (3, (1, 0, g, 3, vec![2])),
            // node 0 also sends on to 2: two Reduces out of 0
            (1, (0, 2, r, 2, vec![0])),
            // the root's broadcast goes to node 0 instead: two Gathers in
            (2, (2, 0, g, 3, vec![1])),
        ];
        for (at, event) in broken {
            let mut events = good.clone();
            events[at] = event;
            let s = build(&events);
            assert_eq!(certify_tree(&s), Certificate::NotTreeShaped, "{s:?}");
        }
        // wrong all-reduces that pass the census and every other rule
        let wrong: [&[Ev]; 5] = [
            // node 0 reduces into both 1 and 2, so 2 is a second root
            &[
                (0, 1, r, 1, vec![]),
                (0, 2, r, 1, vec![]),
                (1, 0, g, 2, vec![0]),
                (1, 2, g, 2, vec![0]),
            ],
            // node 0's Reduce reaches 1 after 1 has sent its own
            &[
                (1, 2, r, 1, vec![]),
                (0, 1, r, 2, vec![]),
                (2, 1, g, 3, vec![0]),
                (1, 0, g, 4, vec![2]),
            ],
            // node 1 broadcasts a partial sum as if it were the root, then
            // reduces on to the real root 2
            &[
                (0, 1, r, 1, vec![]),
                (1, 0, g, 2, vec![0]),
                (1, 2, r, 3, vec![0]),
                (2, 1, g, 4, vec![2]),
            ],
            // the root broadcasts to 0 before node 1's Reduce reaches it
            &[
                (0, 2, r, 1, vec![]),
                (2, 0, g, 2, vec![0]),
                (1, 2, r, 3, vec![]),
                (2, 1, g, 4, vec![0, 2]),
            ],
            // node 1 forwards to the root instead of to leaf 0
            &[
                (0, 1, r, 1, vec![]),
                (1, 2, r, 2, vec![0]),
                (2, 1, g, 3, vec![1]),
                (1, 2, g, 4, vec![2]),
            ],
        ];
        for events in wrong {
            let s = build(events);
            assert_eq!(certify_tree(&s), Certificate::NotTreeShaped, "{s:?}");
            assert!(verify_schedule(&s).is_err(), "{s:?}");
        }
    }

    fn all(s: &CommSchedule) -> Vec<NodeId> {
        (0..s.num_nodes()).map(NodeId::new).collect()
    }

    /// One event on `n` nodes over `segs` segments: far too large for the
    /// symbolic tier, and not tree-shaped.
    fn huge(n: usize, segs: u32) -> CommSchedule {
        let mut s = CommSchedule::new("huge", n, segs);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let c = ChunkRange::single(0);
        s.push_event(a, b, FlowId(0), CollectiveOp::Reduce, c, 1, vec![], None);
        s
    }

    fn assert_exhausted(got: Result<VerifyReport, AlgorithmError>, what: &str) {
        match got {
            Err(AlgorithmError::ResourceExhausted { detail }) => {
                assert!(detail.contains(what), "{detail}")
            }
            other => panic!("expected a typed allocation error, got {other:?}"),
        }
    }

    /// 2^20 nodes × (2^32 − 1) segments of ⌈n/64⌉-word origin sets is
    /// more than `usize` counts: a typed error, not an abort.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn origin_sets_overflowing_usize_are_a_typed_error() {
        let s = huge(1 << 20, u32::MAX);
        assert_eq!(certify_tree(&s), Certificate::NotTreeShaped);
        assert_exhausted(verify_schedule(&s), "origin sets needs more than");
    }

    /// 2^20 nodes × 2^23 segments is 2^60 bytes of origin sets: a `usize`,
    /// but beyond any address space, so the reservation fails.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn origin_sets_beyond_the_address_space_are_a_typed_error() {
        let s = huge(1 << 20, 1 << 23);
        let err = verify_allreduce_among(&s, &all(&s));
        assert_exhausted(err, "cannot allocate the verifier's origin sets");
    }

    /// The numeric buffer is checked the same way.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn numeric_buffer_overflow_and_failure_are_typed_errors() {
        assert_exhausted(
            verify_allreduce_numeric(&huge(1 << 33, 1 << 31)),
            "numeric buffer needs more than",
        );
        assert_exhausted(
            verify_allreduce_numeric(&huge(1 << 24, u32::MAX)),
            "cannot allocate the verifier's numeric buffer",
        );
    }
}
