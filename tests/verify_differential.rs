//! Differential test of the flat word-array verifier against the
//! per-segment `BitSet` verifier it replaced.
//!
//! The [`oracle`] module is that earlier implementation, kept verbatim as
//! test-only code: one heap `BitSet` per `(node, segment)` and per
//! `(event, segment)`, completion by probing `required` bit by bit, and
//! a `Vec<Vec<f64>>` numeric executor. Both verifiers must reach the same
//! verdict — `Ok` with an equal `VerifyReport`, or an error of the same
//! variant — on every shipped builder over every topology family it
//! supports, and on schedules mutated to be wrong in the ways a builder
//! bug would make them wrong.
//!
//! One difference is allowed: a dependency on the same time step is a
//! typed `MalformedSchedule` where the oracle's numeric pass panicked.
//!
//! The tests at the end pin the tree certificate's one-sided rule:
//! whenever `certify_tree` says `Certified`, the symbolic verifier over
//! all nodes accepts the schedule — on every builder and family, on the
//! mutation corpus and on randomly perturbed tree schedules — and the
//! tree-shaped builders do certify.

use mt_topology::{NodeId, Topology};
use multitree::algorithms::{
    AllReduce, Blink, DbTree, HalvingDoubling, Hdrm, HierarchicalMultiTree, MultiTree, Ring, Ring2D,
};
use multitree::collective::verify_reduce_scatter;
use multitree::verify::{certify_tree, verify_allreduce_among, verify_schedule, Certificate};
use multitree::{AlgorithmError, ChunkRange, CollectiveOp, CommSchedule, EventId, FlowId};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The per-segment `BitSet` verifier, as it stood before the flat rewrite.
mod oracle {
    use multitree::verify::VerifyReport;
    use multitree::{AlgorithmError, CollectiveOp, CommEvent, CommSchedule};

    /// A dense bit set with fixed capacity.
    #[derive(Clone, PartialEq, Eq, Hash)]
    pub struct BitSet {
        words: Vec<u64>,
        capacity: usize,
    }

    impl BitSet {
        pub fn new(capacity: usize) -> Self {
            BitSet {
                words: vec![0; capacity.div_ceil(64)],
                capacity,
            }
        }

        pub fn insert(&mut self, i: usize) {
            assert!(i < self.capacity, "bitset element {i} out of capacity");
            self.words[i / 64] |= 1 << (i % 64);
        }

        pub fn contains(&self, i: usize) -> bool {
            i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
        }

        pub fn union_with(&mut self, other: &BitSet) {
            assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
            for (w, o) in self.words.iter_mut().zip(&other.words) {
                *w |= o;
            }
        }

        pub fn len(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }

        pub fn is_full(&self) -> bool {
            self.len() == self.capacity
        }

        pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.capacity).filter(move |&i| self.contains(i))
        }
    }

    pub fn verify_allreduce_among(
        schedule: &CommSchedule,
        participants: &[mt_topology::NodeId],
    ) -> Result<VerifyReport, AlgorithmError> {
        schedule.validate()?;
        let n = schedule.num_nodes();
        let segs = schedule.total_segments() as usize;
        let mut required = BitSet::new(n);
        for p in participants {
            required.insert(p.index());
        }

        // carried[event][segment - chunk.start]: which origins the event's
        // payload contains for that segment.
        let mut carried: Vec<Vec<BitSet>> = Vec::with_capacity(schedule.events().len());
        // state[node][segment]: origins accumulated in the node's buffer.
        let mut state: Vec<Vec<BitSet>> = (0..n)
            .map(|i| {
                (0..segs)
                    .map(|_| {
                        let mut b = BitSet::new(n);
                        b.insert(i);
                        b
                    })
                    .collect()
            })
            .collect();

        let mut gathers = 0usize;
        let mut reduces = 0usize;

        for e in schedule.topological_order() {
            if !required.contains(e.src.index()) || !required.contains(e.dst.index()) {
                return Err(AlgorithmError::MalformedSchedule {
                    detail: format!("{e} involves a non-participant endpoint"),
                });
            }
            let payload = event_payload(schedule, &e, &carried, n)?;
            if e.op == CollectiveOp::Gather {
                gathers += 1;
            } else {
                reduces += 1;
            }
            // Deliver: the destination accumulates the payload.
            for (i, seg) in e.chunk.segments().enumerate() {
                state[e.dst.index()][seg as usize].union_with(&payload[i]);
            }
            carried.push(payload);
        }

        for p in participants {
            let node = p.index();
            #[allow(clippy::needless_range_loop)]
            for seg in 0..segs {
                if !contains_all(&state[node][seg], &required) {
                    return Err(AlgorithmError::VerificationFailed {
                        detail: format!(
                            "node {node} ends with {}/{} contributions for segment {seg}",
                            state[node][seg].len(),
                            participants.len()
                        ),
                    });
                }
            }
        }

        // --- exact numeric execution: catches double counting
        let finals = execute_numeric(schedule, &|node| {
            if required.contains(node) {
                (node + 1) as f64
            } else {
                0.0
            }
        });
        let expected: f64 = participants.iter().map(|p| (p.index() + 1) as f64).sum();
        for p in participants {
            #[allow(clippy::needless_range_loop)]
            for seg in 0..segs {
                let got = finals[p.index()][seg];
                if got != expected {
                    return Err(AlgorithmError::VerificationFailed {
                        detail: format!(
                            "numeric execution: node {p} segment {seg} ends with {got}, expected {expected}                          (a contribution was dropped or double-counted)"
                        ),
                    });
                }
            }
        }

        Ok(VerifyReport {
            events: schedule.events().len(),
            gathers,
            reduces,
        })
    }

    pub fn execute_numeric(
        schedule: &CommSchedule,
        initial: &dyn Fn(usize) -> f64,
    ) -> Vec<Vec<f64>> {
        let n = schedule.num_nodes();
        let segs = schedule.total_segments() as usize;
        let mut buf: Vec<Vec<f64>> = (0..n).map(|i| vec![initial(i); segs]).collect();
        for step_events in schedule.events_by_step() {
            // payloads from the start-of-step state
            let payloads: Vec<Vec<f64>> = step_events
                .iter()
                .map(|e| {
                    for d in e.deps() {
                        assert!(
                            schedule.event(*d).step < e.step,
                            "numeric execution needs strictly earlier-step deps ({} depends on {})",
                            e,
                            schedule.event(*d)
                        );
                    }
                    e.chunk
                        .segments()
                        .map(|seg| buf[e.src.index()][seg as usize])
                        .collect()
                })
                .collect();
            // then all of the step's deliveries
            for (e, payload) in step_events.iter().zip(&payloads) {
                for (i, seg) in e.chunk.segments().enumerate() {
                    match e.op {
                        CollectiveOp::Reduce => buf[e.dst.index()][seg as usize] += payload[i],
                        CollectiveOp::Gather => buf[e.dst.index()][seg as usize] = payload[i],
                    }
                }
            }
        }
        buf
    }

    /// True if `set` contains every element of `required`.
    fn contains_all(set: &BitSet, required: &BitSet) -> bool {
        required.iter().all(|i| set.contains(i))
    }

    fn event_payload(
        schedule: &CommSchedule,
        e: &CommEvent,
        carried: &[Vec<BitSet>],
        n: usize,
    ) -> Result<Vec<BitSet>, AlgorithmError> {
        let mut payload: Vec<BitSet> = e.chunk.segments().map(|_| BitSet::new(n)).collect();
        // Which segments already receive data via an incoming Gather dep.
        let mut has_gather_dep = vec![false; e.chunk.len() as usize];

        for d in e.deps() {
            let dep = schedule.event(*d);
            if dep.dst != e.src {
                // A dependency that is not a delivery to our sender only
                // sequences time (e.g. "my previous send finished"); it
                // contributes no data.
                continue;
            }
            for (i, seg) in e.chunk.segments().enumerate() {
                if dep.chunk.contains(seg) {
                    let offset = (seg - dep.chunk.start) as usize;
                    payload[i].union_with(&carried[d.index()][offset]);
                    if dep.op == CollectiveOp::Gather {
                        has_gather_dep[i] = true;
                    }
                }
            }
        }

        for (i, _seg) in e.chunk.segments().enumerate() {
            let add_self = match e.op {
                CollectiveOp::Reduce => true,
                CollectiveOp::Gather => !has_gather_dep[i],
            };
            if add_self {
                payload[i].insert(e.src.index());
            }
        }
        Ok(payload)
    }

    pub fn verify_reduce_scatter(schedule: &CommSchedule) -> Result<(), AlgorithmError> {
        schedule.validate()?;
        let n = schedule.num_nodes();
        let segs = schedule.total_segments() as usize;
        // carried sets as in the all-reduce verifier, reduce-only
        let mut carried: Vec<Vec<BitSet>> = Vec::with_capacity(schedule.events().len());
        let mut state: Vec<Vec<BitSet>> = (0..n)
            .map(|i| {
                (0..segs)
                    .map(|_| {
                        let mut b = BitSet::new(n);
                        b.insert(i);
                        b
                    })
                    .collect()
            })
            .collect();
        for e in schedule.topological_order() {
            if e.op != CollectiveOp::Reduce {
                return Err(AlgorithmError::MalformedSchedule {
                    detail: format!("reduce-scatter schedule contains a gather: {e}"),
                });
            }
            let mut payload: Vec<BitSet> = e.chunk.segments().map(|_| BitSet::new(n)).collect();
            for d in e.deps() {
                let dep = schedule.event(*d);
                if dep.dst != e.src {
                    continue;
                }
                for (i, seg) in e.chunk.segments().enumerate() {
                    if dep.chunk.contains(seg) {
                        payload[i]
                            .union_with(&carried[d.index()][(seg - dep.chunk.start) as usize]);
                    }
                }
            }
            for p in &mut payload {
                p.insert(e.src.index());
            }
            for (i, seg) in e.chunk.segments().enumerate() {
                state[e.dst.index()][seg as usize].union_with(&payload[i]);
            }
            carried.push(payload);
        }
        #[allow(clippy::needless_range_loop)]
        for seg in 0..segs {
            let owner_has_all = (0..n).any(|node| state[node][seg].is_full());
            if !owner_has_all {
                return Err(AlgorithmError::VerificationFailed {
                    detail: format!("segment {seg} is not fully reduced at any node"),
                });
            }
        }
        Ok(())
    }
}

/// Which way the two verifiers agreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agreement {
    /// Same verdict: equal reports, or errors of the same variant.
    Same,
    /// The oracle panicked on a same-step dependency; the flat verifier
    /// returned `MalformedSchedule`.
    SameStepDependency,
}

fn variant(e: &AlgorithmError) -> std::mem::Discriminant<AlgorithmError> {
    std::mem::discriminant(e)
}

/// Runs both all-reduce verifiers and classifies their agreement,
/// panicking (with both verdicts) on any other difference.
fn compare(s: &CommSchedule, participants: &[NodeId]) -> Agreement {
    let new = verify_allreduce_among(s, participants);
    let old = catch_unwind(AssertUnwindSafe(|| {
        oracle::verify_allreduce_among(s, participants)
    }));
    match (&old, &new) {
        (Ok(Ok(a)), Ok(b)) if a == b => Agreement::Same,
        (Ok(Err(a)), Err(b)) if variant(a) == variant(b) => Agreement::Same,
        (Err(_), Err(AlgorithmError::MalformedSchedule { detail }))
            if detail.contains("strictly earlier-step") =>
        {
            Agreement::SameStepDependency
        }
        _ => panic!(
            "verifiers disagree on {s}: oracle {:?}, flat {new:?}",
            old.as_ref().map_err(|_| "panicked")
        ),
    }
}

fn compare_reduce_scatter(s: &CommSchedule) {
    let new = verify_reduce_scatter(s);
    let old = oracle::verify_reduce_scatter(s);
    match (&old, &new) {
        (Ok(()), Ok(())) => {}
        (Err(a), Err(b)) if variant(a) == variant(b) => {}
        _ => panic!("reduce-scatter verifiers disagree on {s}: oracle {old:?}, flat {new:?}"),
    }
}

fn everyone(s: &CommSchedule) -> Vec<NodeId> {
    (0..s.num_nodes()).map(NodeId::new).collect()
}

/// One topology per family the builders target, small enough for the
/// oracle's cubic memory in a debug build.
fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("torus 4x4", Topology::torus(4, 4)),
        ("torus 3x5", Topology::torus(3, 5)),
        ("mesh 3x4", Topology::mesh(3, 4)),
        ("torus3d 2x2x2", Topology::torus3d(2, 2, 2)),
        ("hypercube 4", Topology::hypercube(4)),
        ("fat-tree 4x2x4", Topology::fat_tree_two_level(4, 2, 4)),
        (
            "oversubscribed fat-tree 4:2",
            Topology::fattree_oversubscribed(4, 2),
        ),
        ("dragonfly 2,2", Topology::dragonfly(2, 2)),
        ("bigraph 32", Topology::bigraph_32()),
        ("random 12", Topology::random_connected(12, 6, 7)),
    ]
}

fn builders() -> Vec<Box<dyn AllReduce>> {
    vec![
        Box::new(Ring),
        Box::new(DbTree::default()),
        Box::new(DbTree::with_pipeline(1)),
        Box::new(Ring2D),
        Box::new(HalvingDoubling),
        Box::new(Hdrm),
        Box::new(Blink::default()),
        Box::new(MultiTree::default()),
        Box::new(MultiTree::bandwidth_aware()),
        Box::new(MultiTree::with_remaining_height()),
        Box::new(HierarchicalMultiTree::default()),
        Box::new(HierarchicalMultiTree::with_pods(4)),
        Box::new(HierarchicalMultiTree::bandwidth_aware()),
    ]
}

/// Every shipped schedule the builders produce on the topologies above,
/// with the participants it reduces among.
fn shipped_schedules() -> Vec<(String, CommSchedule, Vec<NodeId>)> {
    let mut out = Vec::new();
    for (tname, topo) in topologies() {
        for b in builders() {
            // a builder that does not support the family says so
            if let Ok(s) = b.build(&topo) {
                let all = everyone(&s);
                out.push((format!("{} on {tname}", b.name()), s, all));
            }
        }
        let mt = MultiTree::default();
        let n = topo.num_nodes();
        let half: Vec<NodeId> = (0..n).step_by(2).map(NodeId::new).collect();
        if let Ok(s) = mt.build_among(&topo, &half) {
            out.push((format!("multitree subset on {tname}"), s, half));
        }
        if let Ok(s) = mt.build_with_tree_count(&topo, 3.min(n), 2) {
            let all = everyone(&s);
            out.push((format!("multitree-k on {tname}"), s, all));
        }
        if let (Ok(rs), Ok(ag)) = (mt.build_reduce_scatter(&topo), mt.build_all_gather(&topo)) {
            let s = rs.then(&ag);
            let all = everyone(&s);
            out.push((format!("reduce-scatter then all-gather on {tname}"), s, all));
        }
    }
    out
}

#[test]
fn shipped_builders_agree_with_the_oracle() {
    let cases = shipped_schedules();
    assert!(cases.len() > 60, "only {} shipped cases", cases.len());
    for (name, s, participants) in &cases {
        assert_eq!(compare(s, participants), Agreement::Same, "{name}");
        verify_allreduce_among(s, participants).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn reduce_scatter_verifiers_agree() {
    for (_, topo) in topologies() {
        let rs = MultiTree::default().build_reduce_scatter(&topo).unwrap();
        compare_reduce_scatter(&rs);
        verify_reduce_scatter(&rs).unwrap();
        // every all-reduce contains gathers, which reduce-scatter rejects
        compare_reduce_scatter(&MultiTree::default().build(&topo).unwrap());
        for k in 0..rs.events().len().min(8) {
            let at = k * rs.events().len() / 8;
            compare_reduce_scatter(&mutate(&rs, Mutation::DropDep, at));
            compare_reduce_scatter(&mutate(&rs, Mutation::DropEvent, at));
            compare_reduce_scatter(&mutate(&rs, Mutation::ShiftChunk, at));
        }
    }
}

/// The one allowed difference: the oracle panics on a dependency within
/// the same step, the flat verifier returns a typed error.
#[test]
fn same_step_dependency_is_the_allowed_difference() {
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
    assert_eq!(compare(&s, &everyone(&s)), Agreement::SameStepDependency);
}

/// Ways a builder bug makes a schedule wrong.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Remove one declared dependency of the event.
    DropDep,
    /// Remove the event (and every dependency on it).
    DropEvent,
    /// Deliver a Reduce event a second time.
    DuplicateReduce,
    /// Turn a Reduce into a Gather or back.
    FlipOp,
    /// Move the event's chunk one segment along.
    ShiftChunk,
}

const MUTATIONS: [Mutation; 5] = [
    Mutation::DropDep,
    Mutation::DropEvent,
    Mutation::DuplicateReduce,
    Mutation::FlipOp,
    Mutation::ShiftChunk,
];

/// Rebuilds `s` with `m` applied at event `at` (or the nearest event it
/// applies to).
fn mutate(s: &CommSchedule, m: Mutation, at: usize) -> CommSchedule {
    let events: Vec<_> = s.events().collect();
    let mut out = CommSchedule::new(s.algorithm(), s.num_nodes(), s.total_segments());
    if events.is_empty() {
        return out;
    }
    let at = at % events.len();
    // DropDep and DuplicateReduce need an event they apply to
    let target = match m {
        Mutation::DropDep => (0..events.len())
            .map(|k| (at + k) % events.len())
            .find(|&k| !events[k].deps().is_empty())
            .unwrap_or(at),
        Mutation::DuplicateReduce => (0..events.len())
            .map(|k| (at + k) % events.len())
            .find(|&k| events[k].op == CollectiveOp::Reduce)
            .unwrap_or(at),
        _ => at,
    };
    let renumber = |d: EventId| match m {
        Mutation::DropEvent if d.index() > target => Some(EventId::new(d.index() - 1)),
        Mutation::DropEvent if d.index() == target => None,
        _ => Some(d),
    };
    for (k, e) in events.iter().enumerate() {
        let mut op = e.op;
        let mut chunk = e.chunk;
        let mut deps: Vec<EventId> = e.deps().iter().filter_map(|&d| renumber(d)).collect();
        if k == target {
            match m {
                Mutation::DropEvent => continue,
                Mutation::DropDep => {
                    if !deps.is_empty() {
                        deps.remove(at % deps.len());
                    }
                }
                Mutation::FlipOp => {
                    op = match op {
                        CollectiveOp::Reduce => CollectiveOp::Gather,
                        CollectiveOp::Gather => CollectiveOp::Reduce,
                    }
                }
                Mutation::ShiftChunk => {
                    if chunk.end < s.total_segments() {
                        chunk = ChunkRange::new(chunk.start + 1, chunk.end + 1);
                    } else if chunk.start > 0 {
                        chunk = ChunkRange::new(chunk.start - 1, chunk.end - 1);
                    }
                }
                Mutation::DuplicateReduce => {}
            }
        }
        out.push_event(
            e.src,
            e.dst,
            e.flow,
            op,
            chunk,
            e.step,
            deps,
            e.path(),
        );
    }
    if let Mutation::DuplicateReduce = m {
        let e = &events[target];
        out.push_event(
            e.src,
            e.dst,
            e.flow,
            e.op,
            e.chunk,
            e.step,
            e.deps().iter().copied(),
            e.path(),
        );
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_schedules_agree_with_the_oracle(
        case in 0usize..10_000,
        kind in 0usize..5,
        at in 0usize..100_000,
    ) {
        let cases = shipped_schedules();
        let (name, s, participants) = &cases[case % cases.len()];
        let m = MUTATIONS[kind];
        let bad = mutate(s, m, at);
        let agreement = compare(&bad, participants);
        prop_assert!(agreement != Agreement::SameStepDependency, "{name} {m:?}: {agreement:?}");
    }
}

/// The mutations are not vacuous: on a MultiTree schedule each of them
/// is caught by both verifiers.
#[test]
fn every_mutation_is_caught() {
    let s = MultiTree::default().build(&Topology::torus(3, 3)).unwrap();
    let all = everyone(&s);
    for m in MUTATIONS {
        for at in [1usize, 17, 40] {
            let bad = mutate(&s, m, at);
            assert!(
                verify_allreduce_among(&bad, &all).is_err(),
                "{m:?} at {at} slipped through"
            );
            assert!(compare(&bad, &all) != Agreement::SameStepDependency);
        }
    }
}

/// The certificate's one-sided rule on one schedule: `Certified` implies
/// that the symbolic verifier over all nodes accepts, and
/// `verify_schedule` always gives the symbolic verdict, byte for byte.
fn assert_one_sided(name: &str, s: &CommSchedule) -> Certificate {
    let all = everyone(s);
    let certificate = certify_tree(s);
    let symbolic = verify_allreduce_among(s, &all);
    if certificate == Certificate::Certified {
        assert!(symbolic.is_ok(), "{name}: certified, but {symbolic:?}");
    }
    assert_eq!(verify_schedule(s), symbolic, "{name}");
    certificate
}

#[test]
fn certified_builders_verify_symbolically() {
    for (name, s, _) in &shipped_schedules() {
        assert_one_sided(name, s);
    }
}

/// Non-vacuity: every tree-shaped builder certifies wherever it builds,
/// and 2D-RING, whose row and column phases each reduce every segment,
/// never does.
#[test]
fn tree_builders_certify_and_2d_ring_does_not() {
    let mut ring2d_builds = 0;
    for (tname, topo) in topologies() {
        for b in builders() {
            let Ok(s) = b.build(&topo) else { continue };
            let want = if b.name() == Ring2D.name() {
                ring2d_builds += 1;
                Certificate::NotTreeShaped
            } else {
                Certificate::Certified
            };
            assert_eq!(certify_tree(&s), want, "{} on {tname}", b.name());
        }
    }
    assert!(ring2d_builds > 0, "no family built 2D-RING");
}

/// The whole mutation corpus: every mutation at spread positions of every
/// shipped schedule.
#[test]
fn certificate_is_one_sided_on_the_mutation_corpus() {
    let mut refused = 0;
    for (name, s, _) in &shipped_schedules() {
        for m in MUTATIONS {
            for k in 0..6 {
                let bad = mutate(s, m, k * s.num_events() / 6 + k);
                if assert_one_sided(&format!("{name} {m:?} {k}"), &bad) != Certificate::Certified {
                    refused += 1;
                }
            }
        }
    }
    assert!(refused > 0);
}

/// A small deterministic generator for the tree-schedule proptest.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % bound
    }
}

/// A random tree-shaped all-reduce on `n` nodes: the segments split into
/// chunks of one to three, each reduced up and broadcast down a random
/// spanning tree of its own, with the dependencies the shared tree
/// lowering declares.
fn random_tree_schedule(n: usize, rng: &mut Lcg) -> CommSchedule {
    let segs = 1 + rng.below(2 * n) as u32;
    // (chunk, root, [(parent, child, join step)])
    let mut trees = Vec::new();
    let mut start = 0;
    while start < segs {
        let end = segs.min(start + 1 + rng.below(3) as u32);
        let root = rng.below(n);
        let mut order: Vec<usize> = (0..n).filter(|&v| v != root).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut joined = vec![(root, 0u32)];
        let mut edges = Vec::new();
        for child in order {
            let (parent, at) = joined[rng.below(joined.len())];
            let step = at + 1 + rng.below(3) as u32;
            joined.push((child, step));
            edges.push((parent, child, step));
        }
        trees.push((ChunkRange::new(start, end), root, edges));
        start = end;
    }
    let tot = trees
        .iter()
        .flat_map(|(_, _, edges)| edges.iter().map(|e| e.2))
        .max()
        .unwrap_or(0);
    let mut s = CommSchedule::new("random trees", n, segs);
    for (flow, (chunk, root, mut edges)) in trees.into_iter().enumerate() {
        let mut reduces_into: Vec<Vec<EventId>> = vec![Vec::new(); n];
        let mut gather_into: Vec<Option<EventId>> = vec![None; n];
        edges.sort_by_key(|e| std::cmp::Reverse(e.2));
        for &(parent, child, step) in &edges {
            let deps = reduces_into[child].clone();
            let (src, dst) = (NodeId::new(child), NodeId::new(parent));
            let (op, at) = (CollectiveOp::Reduce, tot - step + 1);
            let id = s.push_event(src, dst, FlowId(flow), op, chunk, at, deps, None);
            reduces_into[parent].push(id);
        }
        edges.reverse();
        for &(parent, child, step) in &edges {
            let deps = match gather_into[parent] {
                Some(g) => vec![g],
                None => reduces_into[root].clone(),
            };
            let (src, dst) = (NodeId::new(parent), NodeId::new(child));
            let (op, at) = (CollectiveOp::Gather, tot + step);
            let id = s.push_event(src, dst, FlowId(flow), op, chunk, at, deps, None);
            gather_into[child] = Some(id);
        }
    }
    s
}

/// Ways to perturb one event of a tree schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Perturbation {
    DropDep,
    DuplicateDep,
    RetargetDep,
    ShiftStep,
    FlipOp,
    ShiftChunk,
}

const PERTURBATIONS: [Perturbation; 6] = [
    Perturbation::DropDep,
    Perturbation::DuplicateDep,
    Perturbation::RetargetDep,
    Perturbation::ShiftStep,
    Perturbation::FlipOp,
    Perturbation::ShiftChunk,
];

/// Rebuilds `s` with `p` applied to event `at`, choosing among its deps
/// (or earlier events, or directions) by `pick`.
fn perturb(s: &CommSchedule, p: Perturbation, at: usize, pick: usize) -> CommSchedule {
    let mut out = CommSchedule::new(s.algorithm(), s.num_nodes(), s.total_segments());
    let target = at % s.num_events();
    for e in s.events() {
        let (mut op, mut chunk, mut step) = (e.op, e.chunk, e.step);
        let mut deps = e.deps().to_vec();
        if e.id.index() == target {
            let k = pick % deps.len().max(1);
            match p {
                Perturbation::DropDep if !deps.is_empty() => {
                    deps.remove(k);
                }
                Perturbation::DuplicateDep if !deps.is_empty() => deps.push(deps[k]),
                Perturbation::RetargetDep if target > 0 => {
                    let to = EventId::new(pick % target);
                    match deps.get_mut(k) {
                        Some(d) => *d = to,
                        None => deps.push(to),
                    }
                }
                Perturbation::ShiftStep => {
                    step = if pick.is_multiple_of(2) {
                        step + 1
                    } else {
                        (step - 1).max(1)
                    }
                }
                Perturbation::FlipOp => {
                    op = match op {
                        CollectiveOp::Reduce => CollectiveOp::Gather,
                        CollectiveOp::Gather => CollectiveOp::Reduce,
                    }
                }
                Perturbation::ShiftChunk => {
                    if chunk.end < s.total_segments()
                        && (pick.is_multiple_of(2) || chunk.start == 0)
                    {
                        chunk = ChunkRange::new(chunk.start + 1, chunk.end + 1);
                    } else if chunk.start > 0 {
                        chunk = ChunkRange::new(chunk.start - 1, chunk.end - 1);
                    }
                }
                _ => {}
            }
        }
        out.push_event(e.src, e.dst, e.flow, op, chunk, step, deps, e.path());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn perturbed_tree_schedules_stay_one_sided(
        n in 2usize..9,
        seed in 0u64..1_000_000,
        kind in 0usize..6,
        at in 0usize..100_000,
    ) {
        let mut rng = Lcg(seed);
        let s = random_tree_schedule(n, &mut rng);
        prop_assert_eq!(assert_one_sided("unperturbed", &s), Certificate::Certified);
        let p = PERTURBATIONS[kind];
        let bad = perturb(&s, p, at, rng.below(1 << 20));
        let certificate = assert_one_sided(&format!("{p:?} at {at}"), &bad);
        if p == Perturbation::DuplicateDep {
            // distinct dependencies are counted, so a duplicate is harmless
            prop_assert_eq!(certificate, Certificate::Certified);
        }
    }
}
