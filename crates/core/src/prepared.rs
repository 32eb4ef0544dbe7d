//! A schedule compiled against one topology for repeated simulation.
//!
//! Both network engines and the analytic cost model need, for every
//! event, its physical link path, the rates of the links on it, and the
//! dependency adjacency of the DAG. Computed naively these cost a routing
//! query and several allocations per event *per run* — wasteful for
//! parameter sweeps that execute the same `(schedule, topology)` pair at
//! a dozen payload sizes. [`PreparedSchedule`] validates the schedule
//! once and flattens all of this into contiguous arrays, so a run only
//! indexes slices.
//!
//! The arrays are laid out in *execution order*: events sorted by
//! `(step, original id)`, the order in which a lockstepped run mostly
//! starts them. Each event has one [`ExecEvent`] record holding what the
//! flow engine reads when it starts the event — its original id, source,
//! step and where its hops and dependents start — and the hops
//! and dependents live in two `u32` arenas in the same order, the
//! dependents stored as positions in that order. Link rates come from a
//! per-link table. Accessors taking an original event id (`path`,
//! `dependents`, `step`, …) stay for the cycle engine and the other
//! users, through a per-event position index.
//!
//! The arrays live in an owned [`PreparedData`], separable from the
//! borrowed `(schedule, topology)` pair so long-lived caches (the serving
//! daemon) can store the compiled artifact and re-attach it to its
//! sources per request via [`PreparedSchedule::from_parts`];
//! [`PreparedData::heap_bytes`] gives the byte-size such caches account
//! against their capacity.
//!
//! Payload-size-dependent quantities (per-event byte counts, flit
//! framing, lockstep gates) are deliberately *not* stored here: they
//! change between runs of a sweep, so the engines compute them in one
//! pass per run into their scratch.

use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CommEvent, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{LinkId, Topology};
use std::borrow::Cow;

/// One event in execution order: everything the flow engine reads when
/// it starts the event, in one 20-byte record. Its hops and dependents
/// end where the next record's begin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecEvent {
    /// The event's original id (its index in the schedule).
    pub id: u32,
    /// The sending node's index.
    pub src: u32,
    /// The lockstep step.
    pub step: u32,
    /// Where the event's path starts in the hop arena.
    hop_start: u32,
    /// Where the event's dependents start in the dependents arena.
    dep_start: u32,
}

/// The owned, source-independent half of a [`PreparedSchedule`]: every
/// derived array, in execution order. Computed once by
/// [`PreparedData::compute`] and valid for exactly the `(schedule,
/// topology)` pair it was computed from.
///
/// Every event's path — explicit or routed — is copied into one `u32`
/// hop arena in execution order, so a run reads the hops of consecutive
/// events from consecutive memory.
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// One record per event, sorted by `(step, original id)`, then a
    /// sentinel whose starts are the arenas' lengths.
    events: Vec<ExecEvent>,
    /// Per original event id: its position in `events`.
    positions: Vec<u32>,
    /// Every event's path as link indices, concatenated in execution
    /// order.
    hop_links: Vec<u32>,
    /// Every event's dependents (the events listing it as a dep), as
    /// positions in `events`, concatenated in execution order; each row
    /// ascends by original id.
    dependents: Vec<u32>,
    /// Per link: the effective rate (`capacity * rate`, see
    /// `Topology::link_rate`), pre-widened to `f64` so the engines'
    /// serialization divide needs no lookup. On uniform topologies these
    /// are exactly the integer capacities.
    link_rates: Vec<f64>,
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
        let steps = schedule.steps();

        // execution order: a counting sort on step, stable in id
        let max_step = steps.iter().copied().max().unwrap_or(0) as usize;
        let mut step_starts = vec![0u32; max_step + 2];
        for &st in steps {
            step_starts[st as usize + 1] += 1;
        }
        for st in 0..=max_step {
            step_starts[st + 1] += step_starts[st];
        }
        // the records, in execution order, first holding only their ids
        let mut events = vec![ExecEvent::default(); n + 1];
        let mut positions = vec![0u32; n];
        for (i, &st) in steps.iter().enumerate() {
            let slot = &mut step_starts[st as usize];
            events[*slot as usize].id = i as u32;
            positions[i] = *slot;
            *slot += 1;
        }

        // each event's dependent count, by id; the records pass turns it
        // into the cursor where the event's row of dependents starts
        let mut cursor = vec![0u32; n];
        for i in 0..n {
            for d in schedule.deps(i) {
                cursor[d.index()] += 1;
            }
        }

        let mut hop_links = Vec::with_capacity(n);
        let mut routed = Vec::new();
        let mut dep_start = 0u32;
        for e in &mut events[..n] {
            let i = e.id as usize;
            let path = match schedule.path(i) {
                Some(path) => path,
                None => {
                    routed.clear();
                    let (src, dst) = (schedule.srcs()[i] as usize, schedule.dsts()[i] as usize);
                    topo.route_into(src.into(), dst.into(), &mut routed)
                        .map_err(|e| AlgorithmError::MalformedSchedule {
                            detail: format!("event {i} cannot be routed: {e}"),
                        })?;
                    &routed
                }
            };
            e.src = schedule.srcs()[i];
            e.step = steps[i];
            e.hop_start = hop_links.len() as u32;
            e.dep_start = dep_start;
            hop_links.extend(path.iter().map(|l| l.index() as u32));
            dep_start += std::mem::replace(&mut cursor[i], dep_start);
        }
        events[n].hop_start = hop_links.len() as u32;
        events[n].dep_start = dep_start;

        // the dependents, as positions; filling in id order keeps each
        // row ascending by original id
        let mut dependents = vec![0u32; dep_start as usize];
        for (i, &pos) in positions.iter().enumerate() {
            for d in schedule.deps(i) {
                let slot = &mut cursor[d.index()];
                dependents[*slot as usize] = pos;
                *slot += 1;
            }
        }
        hop_links.shrink_to_fit();
        let link_rates = (0..topo.num_links())
            .map(|l| topo.link_rate(LinkId::new(l)))
            .collect();

        Ok(PreparedData {
            events,
            positions,
            hop_links,
            dependents,
            link_rates,
        })
    }

    /// Number of events these arrays were computed for.
    pub fn num_events(&self) -> usize {
        self.positions.len()
    }

    /// Bytes of heap the arrays occupy: the allocated capacity of every
    /// one — what a byte-budgeted cache charges for keeping this artifact
    /// resident.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        cap(&self.events)
            + cap(&self.positions)
            + cap(&self.hop_links)
            + cap(&self.dependents)
            + cap(&self.link_rates)
    }
}

/// A `(CommSchedule, Topology)` pair validated once, with every event's
/// link path, the per-link rates and the dependents adjacency flattened
/// into arrays in execution order. See the [module docs](self).
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
        self.data.num_events()
    }

    /// The events, indexable by the same indices every accessor takes.
    pub fn events(&self) -> impl ExactSizeIterator<Item = CommEvent<'a>> + 'a {
        self.schedule.events()
    }

    /// Every event's record, in execution order: sorted by `(step,
    /// original id)`. An event's index here is its *position*.
    #[inline]
    pub fn exec_events(&self) -> &[ExecEvent] {
        &self.data.events[..self.num_events()]
    }

    /// The link indices of the path of the event at position `p`.
    #[inline]
    pub fn exec_path(&self, p: usize) -> &[u32] {
        let e = &self.data.events;
        &self.data.hop_links[e[p].hop_start as usize..e[p + 1].hop_start as usize]
    }

    /// The events that depend on the event at position `p`, as
    /// positions, ascending by original id.
    #[inline]
    pub fn exec_dependents(&self, p: usize) -> &[u32] {
        let e = &self.data.events;
        &self.data.dependents[e[p].dep_start as usize..e[p + 1].dep_start as usize]
    }

    /// Every link's effective rate (`capacity * rate`, see
    /// `Topology::link_rate`) as `f64`, indexed by link index. On uniform
    /// topologies these are exactly the integer capacities.
    #[inline]
    pub fn link_rates(&self) -> &[f64] {
        &self.data.link_rates
    }

    /// Event `i`'s position in [`PreparedSchedule::exec_events`].
    #[inline]
    pub fn position(&self, i: usize) -> usize {
        self.data.positions[i] as usize
    }

    /// The link indices of event `i`'s path: its explicit path when the
    /// schedule has one, else the route resolved at compute time.
    #[inline]
    pub fn hop_links(&self, i: usize) -> &[u32] {
        self.exec_path(self.position(i))
    }

    /// The physical link path of event `i`, as [`LinkId`]s.
    pub fn path(&self, i: usize) -> impl ExactSizeIterator<Item = LinkId> + '_ {
        self.hop_links(i).iter().map(|&l| LinkId::new(l as usize))
    }

    /// Hop count of event `i`'s path.
    pub fn hops(&self, i: usize) -> usize {
        self.hop_links(i).len()
    }

    /// The first link of event `i`'s path — the injection port a
    /// cycle-accurate NI enqueues the message on. Paths are never empty.
    pub fn first_link(&self, i: usize) -> LinkId {
        LinkId::new(self.hop_links(i)[0] as usize)
    }

    /// The bottleneck (minimum) capacity along event `i`'s path, in link
    /// multiplicity units, clamped to at least 1. Rate-blind; see
    /// [`PreparedSchedule::link_rates`] for the effective bandwidths.
    pub fn min_capacity(&self, i: usize) -> u32 {
        self.path(i)
            .map(|l| self.topo.link(l).capacity)
            .min()
            .unwrap_or(1)
            .max(1)
    }

    /// Events that depend on event `i`, ascending.
    pub fn dependents(&self, i: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        let events = &self.data.events;
        self.exec_dependents(self.position(i))
            .iter()
            .map(move |&p| events[p as usize].id)
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
                assert_eq!(prep.path(i).collect::<Vec<_>>(), &*expect);
                assert_eq!(prep.hops(i), expect.len());
                let cap = expect
                    .iter()
                    .map(|l| topo.link(*l).capacity)
                    .min()
                    .unwrap_or(1)
                    .max(1);
                assert_eq!(prep.min_capacity(i), cap);
                // uniform topology: effective rates are exactly the caps
                for l in expect.iter() {
                    assert_eq!(prep.link_rates()[l.index()], f64::from(topo.link(*l).capacity));
                }
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
                assert_eq!(prep.path(i).collect::<Vec<_>>(), &*event_path(e, &topo), "event {i}");
                assert_eq!(Some(prep.first_link(i)), prep.path(i).next());
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
            let expect = d.events.capacity() * size_of::<ExecEvent>()
                + (d.positions.capacity() + d.hop_links.capacity() + d.dependents.capacity())
                    * size_of::<u32>()
                + d.link_rates.capacity() * size_of::<f64>();
            assert_eq!(d.heap_bytes(), expect);
            // one 20-byte record (plus a sentinel) and one position per
            // event, one word per hop and per dependency edge, one rate
            // per link
            assert_eq!(size_of::<ExecEvent>(), 20);
            assert_eq!(d.events.capacity(), s.num_events() + 1);
            assert_eq!(d.positions.capacity(), s.num_events());
            assert_eq!(d.link_rates.capacity(), topo.num_links());
        }
    }

    #[test]
    fn exec_order_sorts_by_step_then_id() {
        let topo = Topology::torus(4, 4);
        let ring = Ring.build(&topo).unwrap();
        let tree = MultiTree::default().build(&topo).unwrap();
        // interleaved steps make execution order differ from id order
        for s in [tree.merge_concurrent(&ring), DbTree::default().build(&topo).unwrap()] {
            let prep = PreparedSchedule::new(&s, &topo).unwrap();
            let events = prep.exec_events();
            assert_eq!(events.len(), s.num_events());
            assert!(events
                .windows(2)
                .all(|w| (w[0].step, w[0].id) < (w[1].step, w[1].id)));
            for (p, e) in events.iter().enumerate() {
                let i = e.id as usize;
                assert_eq!(prep.position(i), p);
                assert_eq!(e.step, prep.step(i));
                assert_eq!(e.src as usize, prep.src_index(i));
                assert_eq!(prep.exec_path(p), prep.hop_links(i));
                let deps: Vec<u32> = prep
                    .exec_dependents(p)
                    .iter()
                    .map(|&p| events[p as usize].id)
                    .collect();
                assert_eq!(deps, prep.dependents(i).collect::<Vec<_>>());
            }
        }
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
            for l in prep.path(i) {
                let w = prep.link_rates()[l.index()];
                if l == slow_id {
                    assert_eq!(w, 0.25);
                    saw_slow = true;
                } else {
                    assert_eq!(w, f64::from(topo.link(l).capacity));
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
            assert_eq!(prep.dependents(i).collect::<Vec<_>>(), *row, "row {i}");
            assert_eq!(
                prep.indegree(i),
                s.event(EventId::new(i)).deps().len() as u32
            );
        }
        // a DAG invariant: edge counts agree in both directions
        let total: u32 = (0..s.events().len()).map(|i| prep.indegree(i)).sum();
        assert_eq!(total as usize, prep.data().dependents.len());
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
            assert_eq!(reattached.hop_links(i), fresh.hop_links(i));
            assert!(reattached.dependents(i).eq(fresh.dependents(i)));
            assert_eq!(reattached.step(i), fresh.step(i));
        }
        assert_eq!(reattached.exec_events(), fresh.exec_events());
        assert_eq!(reattached.link_rates(), fresh.link_rates());
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
