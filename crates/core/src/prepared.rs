//! A schedule compiled against one topology for repeated simulation.
//!
//! Both network engines and the analytic cost model need, for every
//! event, its physical link path, the bottleneck capacity along that
//! path, and the dependency adjacency of the DAG. Computed naively these
//! cost a routing query and several allocations per event *per run* —
//! wasteful for parameter sweeps that execute the same `(schedule,
//! topology)` pair at a dozen payload sizes. [`PreparedSchedule`]
//! validates the schedule once and flattens all of this into contiguous
//! CSR arrays, so a run only indexes slices.
//!
//! The flattened arrays live in an owned [`PreparedData`], separable
//! from the borrowed `(schedule, topology)` pair so long-lived caches
//! (the serving daemon) can store the compiled artifact and re-attach it
//! to its sources per request via [`PreparedSchedule::from_parts`];
//! [`PreparedData::heap_bytes`] gives the byte-size such caches account
//! against their capacity.
//!
//! Payload-size-dependent quantities (per-event byte counts, flit
//! framing) are deliberately *not* precomputed: they change between runs
//! of a sweep while everything stored here stays fixed.

use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CommEvent, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{LinkId, Topology};
use std::borrow::Cow;

/// The owned, source-independent half of a [`PreparedSchedule`]: every
/// derived per-event array, flattened into CSR form. Computed once by
/// [`PreparedData::compute`] and valid for exactly the `(schedule,
/// topology)` pair it was computed from.
///
/// Explicit paths are not copied: they stay in the schedule's path arena,
/// and only the events the schedule leaves unrouted get their routed
/// links stored here.
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// CSR offsets over every event's hops (explicit or routed), length
    /// `num_events + 1`; indexes `path_caps`.
    hop_offsets: Vec<u32>,
    /// The routed links of unrouted events, concatenated. Event `i`'s
    /// routed span starts at `hop_offsets[i]` minus the schedule's
    /// explicit links before it (`CommSchedule::explicit_links_before`).
    routed_links: Vec<LinkId>,
    /// Per-hop effective link rates (`capacity * rate`, see
    /// `Topology::link_rate`), pre-widened to `f64` so the engines'
    /// serialization divide needs no lookup. On uniform topologies these
    /// are exactly the integer capacities.
    path_caps: Vec<f64>,
    /// Per-event bottleneck (minimum) *effective* link rate along the
    /// path, 1.0 for an empty path. Exactly the smallest integer capacity
    /// on uniform topologies.
    min_rates: Vec<f64>,
    /// CSR offsets into `dependent_ids`, length `num_events + 1`.
    dependent_offsets: Vec<u32>,
    /// Concatenated dependents: events that list the row event as a dep,
    /// in schedule order.
    dependent_ids: Vec<u32>,
}

impl PreparedData {
    /// Validates `schedule` and resolves every event against `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::MalformedSchedule`] if the schedule
    /// fails [`CommSchedule::validate`] or an unrouted event's endpoints
    /// are unreachable in `topo`.
    pub fn compute(schedule: &CommSchedule, topo: &Topology) -> Result<Self, AlgorithmError> {
        schedule.validate()?;
        let n = schedule.num_events();

        let mut hop_offsets = Vec::with_capacity(n + 1);
        let mut routed_links = Vec::new();
        let mut path_caps = Vec::with_capacity(schedule.explicit_links_before(n));
        let mut min_rates = Vec::with_capacity(n);
        hop_offsets.push(0u32);
        for i in 0..n {
            let path = match schedule.path(i) {
                Some(p) => p,
                None => {
                    let start = routed_links.len();
                    let (src, dst) = (schedule.srcs()[i] as usize, schedule.dsts()[i] as usize);
                    topo.route_into(src.into(), dst.into(), &mut routed_links)
                        .map_err(|e| AlgorithmError::MalformedSchedule {
                            detail: format!("event {i} cannot be routed: {e}"),
                        })?;
                    &routed_links[start..]
                }
            };
            let mr = path
                .iter()
                .map(|l| topo.link_rate(*l))
                .fold(f64::INFINITY, f64::min);
            min_rates.push(if mr.is_finite() { mr } else { 1.0 });
            path_caps.extend(path.iter().map(|l| topo.link_rate(*l)));
            hop_offsets.push(path_caps.len() as u32);
        }
        routed_links.shrink_to_fit();
        path_caps.shrink_to_fit();

        // dependents adjacency via counting sort over the schedule's
        // dependency arena; filling in schedule order keeps each row
        // sorted by dependent id
        let mut dependent_offsets = vec![0u32; n + 1];
        for i in 0..n {
            for d in schedule.deps(i) {
                dependent_offsets[d.index() + 1] += 1;
            }
        }
        for i in 0..n {
            dependent_offsets[i + 1] += dependent_offsets[i];
        }
        let mut cursor: Vec<u32> = dependent_offsets[..n].to_vec();
        let mut dependent_ids = vec![0u32; dependent_offsets[n] as usize];
        for i in 0..n {
            for d in schedule.deps(i) {
                let slot = &mut cursor[d.index()];
                dependent_ids[*slot as usize] = i as u32;
                *slot += 1;
            }
        }

        Ok(PreparedData {
            hop_offsets,
            routed_links,
            path_caps,
            min_rates,
            dependent_offsets,
            dependent_ids,
        })
    }

    /// Number of events these arrays were computed for.
    pub fn num_events(&self) -> usize {
        self.min_rates.len()
    }

    /// Bytes of heap the arrays occupy: the allocated capacity of every
    /// one — what a byte-budgeted cache charges for keeping this artifact
    /// resident.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        cap(&self.hop_offsets)
            + cap(&self.routed_links)
            + cap(&self.path_caps)
            + cap(&self.min_rates)
            + cap(&self.dependent_offsets)
            + cap(&self.dependent_ids)
    }
}

/// A `(CommSchedule, Topology)` pair validated once, with per-event link
/// paths, bottleneck capacities and the dependents adjacency flattened
/// into CSR form. See the [module docs](self).
///
/// ```
/// use mt_topology::Topology;
/// use multitree::algorithms::{AllReduce, MultiTree};
/// use multitree::prepared::PreparedSchedule;
///
/// let topo = Topology::torus(4, 4);
/// let schedule = MultiTree::default().build(&topo)?;
/// let prep = PreparedSchedule::new(&schedule, &topo)?;
/// assert_eq!(prep.num_events(), schedule.events().len());
/// // every event's path is resolved and non-trivial to index
/// assert!((0..prep.num_events()).all(|i| prep.hops(i) >= 1));
/// # Ok::<(), multitree::AlgorithmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PreparedSchedule<'a> {
    schedule: &'a CommSchedule,
    topo: &'a Topology,
    data: Cow<'a, PreparedData>,
}

impl<'a> PreparedSchedule<'a> {
    /// Validates `schedule` and resolves every event against `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::MalformedSchedule`] if the schedule
    /// fails [`CommSchedule::validate`].
    pub fn new(schedule: &'a CommSchedule, topo: &'a Topology) -> Result<Self, AlgorithmError> {
        let data = PreparedData::compute(schedule, topo)?;
        Ok(PreparedSchedule {
            schedule,
            topo,
            data: Cow::Owned(data),
        })
    }

    /// Re-attaches an already-computed [`PreparedData`] to its sources
    /// without copying — the cache-hit path of a schedule server. The
    /// caller guarantees `data` was computed from exactly this
    /// `(schedule, topo)` pair (the event-count mismatch is caught, a
    /// semantic mismatch is not).
    pub fn from_parts(
        schedule: &'a CommSchedule,
        topo: &'a Topology,
        data: &'a PreparedData,
    ) -> Self {
        assert_eq!(
            data.num_events(),
            schedule.num_events(),
            "PreparedData does not match the schedule it is attached to"
        );
        PreparedSchedule {
            schedule,
            topo,
            data: Cow::Borrowed(data),
        }
    }

    /// A second view over the same parts, borrowing this one's data.
    ///
    /// `Clone` on a view holding owned data deep-copies the CSR arrays;
    /// batch executors and fan-out sweeps that want one view per run or
    /// per thread re-borrow instead — the result always holds
    /// `Cow::Borrowed`, whatever this view holds, so it costs three
    /// pointers.
    ///
    /// ```
    /// use mt_topology::Topology;
    /// use multitree::algorithms::{AllReduce, MultiTree};
    /// use multitree::prepared::PreparedSchedule;
    ///
    /// let topo = Topology::torus(4, 4);
    /// let schedule = MultiTree::default().build(&topo)?;
    /// let prep = PreparedSchedule::new(&schedule, &topo)?; // owns its data
    /// let n_events = schedule.events().len();
    /// std::thread::scope(|s| {
    ///     for _ in 0..4 {
    ///         let view = prep.reborrow(); // no array copies
    ///         s.spawn(move || assert_eq!(view.num_events(), n_events));
    ///     }
    /// });
    /// # Ok::<(), multitree::AlgorithmError>(())
    /// ```
    pub fn reborrow(&self) -> PreparedSchedule<'_> {
        PreparedSchedule {
            schedule: self.schedule,
            topo: self.topo,
            data: Cow::Borrowed(&self.data),
        }
    }

    /// The owned half: flattened arrays, detachable for caching.
    pub fn data(&self) -> &PreparedData {
        &self.data
    }

    /// Consumes the view, returning the owned arrays (cloning only if
    /// this view was built over borrowed data).
    pub fn into_data(self) -> PreparedData {
        self.data.into_owned()
    }

    /// The schedule this was prepared from.
    pub fn schedule(&self) -> &'a CommSchedule {
        self.schedule
    }

    /// The topology this was prepared against.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// Number of events in the schedule.
    pub fn num_events(&self) -> usize {
        self.data.min_rates.len()
    }

    /// The events, indexable by the same indices every accessor takes.
    pub fn events(&self) -> impl ExactSizeIterator<Item = CommEvent<'a>> + 'a {
        self.schedule.events()
    }

    /// The physical link path of event `i`: its explicit path when the
    /// schedule has one, else the route resolved at compute time.
    #[inline]
    pub fn path(&self, i: usize) -> &[LinkId] {
        match self.schedule.path(i) {
            Some(p) => p,
            None => {
                let before = self.schedule.explicit_links_before(i);
                let hops = self.hop_range(i);
                &self.data.routed_links[hops.start - before..hops.end - before]
            }
        }
    }

    /// Event `i`'s span of the per-hop arrays.
    #[inline]
    fn hop_range(&self, i: usize) -> std::ops::Range<usize> {
        self.data.hop_offsets[i] as usize..self.data.hop_offsets[i + 1] as usize
    }

    /// The effective rates (`capacity * rate`) of event `i`'s path
    /// links, as `f64`, aligned with [`PreparedSchedule::path`]. On
    /// uniform topologies these are exactly the integer capacities.
    pub fn path_capacities(&self, i: usize) -> &[f64] {
        &self.data.path_caps[self.hop_range(i)]
    }

    /// Hop count of event `i`'s path.
    pub fn hops(&self, i: usize) -> usize {
        (self.data.hop_offsets[i + 1] - self.data.hop_offsets[i]) as usize
    }

    /// The first link of event `i`'s path — the injection port a
    /// cycle-accurate NI enqueues the message on. Paths are never empty.
    pub fn first_link(&self, i: usize) -> LinkId {
        self.path(i)[0]
    }

    /// The bottleneck (minimum) capacity along event `i`'s path, in link
    /// multiplicity units, clamped to at least 1. Rate-blind; see
    /// [`PreparedSchedule::min_rate`] for the effective-bandwidth
    /// bottleneck.
    pub fn min_capacity(&self, i: usize) -> u32 {
        self.path(i)
            .iter()
            .map(|l| self.topo.link(*l).capacity)
            .min()
            .unwrap_or(1)
            .max(1)
    }

    /// The bottleneck (minimum) *effective* rate along event `i`'s path,
    /// in units of the base link bandwidth. Exactly
    /// `f64::from(self.min_capacity(i))` on uniform topologies, smaller
    /// when a slow link sits on the path.
    pub fn min_rate(&self, i: usize) -> f64 {
        self.data.min_rates[i]
    }

    /// Events that depend on event `i`, ascending.
    pub fn dependents(&self, i: usize) -> &[u32] {
        &self.data.dependent_ids
            [self.data.dependent_offsets[i] as usize..self.data.dependent_offsets[i + 1] as usize]
    }

    /// Number of dependencies event `i` waits on.
    pub fn indegree(&self, i: usize) -> u32 {
        self.schedule.indegree(i)
    }

    /// The lockstep step of event `i`.
    pub fn step(&self, i: usize) -> u32 {
        self.schedule.steps()[i]
    }

    /// The data segments event `i` carries.
    #[inline]
    pub fn chunk(&self, i: usize) -> ChunkRange {
        self.schedule.chunks()[i]
    }

    /// The flow event `i` belongs to.
    #[inline]
    pub fn flow(&self, i: usize) -> FlowId {
        FlowId(self.schedule.flows()[i] as usize)
    }

    /// The source node index of event `i`.
    pub fn src_index(&self, i: usize) -> usize {
        self.schedule.srcs()[i] as usize
    }

    /// The indegree of every event (a fresh copy, ready to count down).
    pub fn indegree_vec(&self) -> Vec<u32> {
        (0..self.num_events()).map(|i| self.indegree(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AllReduce, DbTree, MultiTree, Ring};
    use crate::cost::event_path;
    use crate::EventId;

    #[test]
    fn paths_match_event_path() {
        let topo = Topology::torus(4, 4);
        for algo in [
            &Ring as &dyn AllReduce,
            &DbTree::default(),
            &MultiTree::default(),
        ] {
            let s = algo.build(&topo).unwrap();
            let prep = PreparedSchedule::new(&s, &topo).unwrap();
            assert_eq!(prep.num_events(), s.events().len());
            for (i, e) in s.events().enumerate() {
                let expect = event_path(e, &topo);
                assert_eq!(prep.path(i), &*expect);
                assert_eq!(prep.hops(i), expect.len());
                let cap = expect
                    .iter()
                    .map(|l| topo.link(*l).capacity)
                    .min()
                    .unwrap_or(1)
                    .max(1);
                assert_eq!(prep.min_capacity(i), cap);
                // uniform topology: effective rates are exactly the caps
                assert_eq!(prep.min_rate(i), f64::from(cap));
                let caps: Vec<f64> = expect
                    .iter()
                    .map(|l| f64::from(topo.link(*l).capacity))
                    .collect();
                assert_eq!(prep.path_capacities(i), caps.as_slice());
                assert_eq!(prep.step(i), e.step);
                assert_eq!(prep.src_index(i), e.src.index());
            }
        }
    }

    #[test]
    fn mixed_explicit_and_routed_paths_resolve() {
        // ring events defer to routing, MultiTree events carry paths:
        // interleaving both exercises the routed-span offsets
        let topo = Topology::torus(4, 4);
        let ring = Ring.build(&topo).unwrap();
        let tree = MultiTree::default().build(&topo).unwrap();
        for s in [
            ring.then(&tree),
            tree.then(&ring),
            tree.merge_concurrent(&ring),
        ] {
            let prep = PreparedSchedule::new(&s, &topo).unwrap();
            for (i, e) in s.events().enumerate() {
                assert_eq!(prep.path(i), &*event_path(e, &topo), "event {i}");
                assert_eq!(prep.first_link(i), prep.path(i)[0]);
            }
        }
    }

    #[test]
    fn heap_bytes_counts_every_array_capacity() {
        use std::mem::size_of;
        let topo = Topology::torus(4, 4);
        for s in [
            Ring.build(&topo).unwrap(),
            MultiTree::default().build(&topo).unwrap(),
        ] {
            let d = PreparedData::compute(&s, &topo).unwrap();
            let expect = (d.hop_offsets.capacity()
                + d.dependent_offsets.capacity()
                + d.dependent_ids.capacity())
                * size_of::<u32>()
                + d.routed_links.capacity() * size_of::<LinkId>()
                + (d.path_caps.capacity() + d.min_rates.capacity()) * size_of::<f64>();
            assert_eq!(d.heap_bytes(), expect);
        }
        // explicit paths are not copied: MultiTree routes nothing here
        let tree = MultiTree::default().build(&topo).unwrap();
        let d = PreparedData::compute(&tree, &topo).unwrap();
        assert_eq!(d.routed_links.capacity(), 0);
    }

    #[test]
    fn heterogeneous_rates_reach_path_weights() {
        let uniform = Topology::torus(4, 4);
        let s = MultiTree::default().build(&uniform).unwrap();
        let slow_id = mt_topology::LinkId::new(0);
        let topo = uniform.with_link_rates(&[(slow_id, 1, 4)]).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut saw_slow = false;
        for i in 0..prep.num_events() {
            for (l, &w) in prep.path(i).iter().zip(prep.path_capacities(i)) {
                if *l == slow_id {
                    assert_eq!(w, 0.25);
                    assert_eq!(prep.min_rate(i), 0.25);
                    saw_slow = true;
                } else {
                    assert_eq!(w, f64::from(topo.link(*l).capacity));
                }
            }
            // min_capacity stays rate-blind
            assert_eq!(prep.min_capacity(i), 1);
        }
        assert!(saw_slow, "some event must cross link 0");
    }

    #[test]
    fn dependents_invert_deps() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        // CSR rows must equal the naive Vec<Vec> construction
        let mut naive: Vec<Vec<u32>> = vec![Vec::new(); s.events().len()];
        for e in s.events() {
            for d in e.deps() {
                naive[d.index()].push(e.id.index() as u32);
            }
        }
        for (i, row) in naive.iter().enumerate() {
            assert_eq!(prep.dependents(i), row.as_slice(), "row {i}");
            assert_eq!(
                prep.indegree(i),
                s.event(EventId::new(i)).deps().len() as u32
            );
        }
        // a DAG invariant: edge counts agree in both directions
        let total: u32 = (0..s.events().len()).map(|i| prep.indegree(i)).sum();
        assert_eq!(total as usize, prep.data().dependent_ids.len());
    }

    #[test]
    fn detached_data_reattaches_identically() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let fresh = PreparedSchedule::new(&s, &topo).unwrap();
        let data = fresh.clone().into_data();
        assert!(data.heap_bytes() > 0);
        let reattached = PreparedSchedule::from_parts(&s, &topo, &data);
        assert_eq!(reattached.num_events(), fresh.num_events());
        for i in 0..fresh.num_events() {
            assert_eq!(reattached.path(i), fresh.path(i));
            assert_eq!(reattached.path_capacities(i), fresh.path_capacities(i));
            assert_eq!(reattached.dependents(i), fresh.dependents(i));
            assert_eq!(reattached.min_rate(i), fresh.min_rate(i));
            assert_eq!(reattached.step(i), fresh.step(i));
        }
    }

    #[test]
    fn rejects_invalid_schedules() {
        use crate::{ChunkRange, CollectiveOp, FlowId};
        use mt_topology::NodeId;
        let topo = Topology::torus(2, 2);
        let mut s = CommSchedule::new("bad", 4, 4);
        let a = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            5,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(2),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            1,
            vec![a],
            None,
        );
        assert!(PreparedSchedule::new(&s, &topo).is_err());
    }
}
