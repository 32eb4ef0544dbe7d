//! Fault-injection tests for the verifier: every single-event corruption
//! of a correct schedule (dropping a message's payload, misdirecting a
//! message) must be caught. This is the guarantee that makes "verified"
//! mean something for all the schedules in this repository.

use multitree::algorithms::{AllReduce, MultiTree, Ring};
use multitree::verify::verify_schedule;
use multitree::{ChunkRange, CommSchedule};
use mt_topology::{NodeId, Topology};

/// Rebuilds `schedule` with event `k` mutated by `f` (returning the new
/// (dst, chunk) for it).
fn mutate(
    schedule: &CommSchedule,
    k: usize,
    f: impl Fn(&multitree::CommEvent) -> (NodeId, ChunkRange),
) -> CommSchedule {
    let mut out = CommSchedule::new(
        schedule.algorithm(),
        schedule.num_nodes(),
        schedule.total_segments(),
    );
    for (i, e) in schedule.events().enumerate() {
        let (dst, chunk) = if i == k { f(&e) } else { (e.dst, e.chunk) };
        out.push_event(
            e.src,
            dst,
            e.flow,
            e.op,
            chunk,
            e.step,
            e.deps().iter().copied(),
            e.path(),
        );
    }
    out
}

#[test]
fn dropping_any_message_payload_is_caught() {
    let topo = Topology::mesh(2, 2);
    for schedule in [
        MultiTree::default().build(&topo).unwrap(),
        Ring.build(&topo).unwrap(),
    ] {
        verify_schedule(&schedule).unwrap();
        for k in 0..schedule.events().len() {
            let broken = mutate(&schedule, k, |e| {
                (e.dst, ChunkRange::new(e.chunk.start, e.chunk.start))
            });
            assert!(
                verify_schedule(&broken).is_err(),
                "{}: emptying event {k} went undetected",
                schedule.algorithm()
            );
        }
    }
}

#[test]
fn misdirecting_any_message_is_caught() {
    let topo = Topology::torus(4, 4);
    let n = topo.num_nodes();
    for schedule in [
        MultiTree::default().build(&topo).unwrap(),
        Ring.build(&topo).unwrap(),
    ] {
        verify_schedule(&schedule).unwrap();
        // sample every 7th event to keep runtime modest
        for k in (0..schedule.events().len()).step_by(7) {
            let broken = mutate(&schedule, k, |e| {
                let mut wrong = NodeId::new((e.dst.index() + 1) % n);
                if wrong == e.src {
                    wrong = NodeId::new((e.dst.index() + 2) % n);
                }
                (wrong, e.chunk)
            });
            assert!(
                verify_schedule(&broken).is_err(),
                "{}: misdirecting event {k} went undetected",
                schedule.algorithm()
            );
        }
    }
}

#[test]
fn stripping_dependencies_is_caught() {
    // removing all deps from every event leaves the data movement intact
    // in insertion order, but the dependency-strict verifier must reject
    // it (a timed engine could reorder).
    let topo = Topology::mesh(2, 2);
    let schedule = MultiTree::default().build(&topo).unwrap();
    let mut out = CommSchedule::new(
        schedule.algorithm(),
        schedule.num_nodes(),
        schedule.total_segments(),
    );
    for e in schedule.events() {
        out.push_event(
            e.src,
            e.dst,
            e.flow,
            e.op,
            e.chunk,
            e.step,
            vec![],
            e.path(),
        );
    }
    assert!(verify_schedule(&out).is_err());
}
