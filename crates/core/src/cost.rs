//! Analytic schedule cost model (paper Table I and §VII-A).
//!
//! Computes, without running a network simulation: algorithmic step count,
//! per-node traffic volume (vs the bandwidth-optimal `2(n-1)/n · D`),
//! per-step link contention, and hop statistics. An alpha-beta time
//! estimate combines them for quick comparisons; the `mt-netsim` crate
//! provides the faithful timing.

use crate::event::CommEvent;
use crate::schedule::CommSchedule;
use mt_topology::{LinkId, Topology};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// Analytic properties of a schedule on a topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Algorithmic (lockstep) steps.
    pub num_steps: u32,
    /// Total point-to-point messages.
    pub num_events: usize,
    /// Payload size the stats were computed for.
    pub total_bytes: u64,
    /// Largest per-node sent volume (NI pressure; interior tree nodes
    /// send more than leaves).
    pub max_sent_bytes: u64,
    /// Total volume sent by all nodes.
    pub total_sent_bytes: u64,
    /// The bandwidth-optimal per-node volume `2(n-1)/n · D`.
    pub optimal_bytes: u64,
    /// `total_sent_bytes / (n · optimal_bytes)` — 1.0 means the algorithm
    /// moves exactly the bandwidth-optimal aggregate volume `2(n-1)·D`
    /// (Table I's "bandwidth" column); 2D-Ring sits near 2.0.
    pub volume_ratio: f64,
    /// Maximum number of same-step transfers crossing one unidirectional
    /// link, in units of that link's effective bandwidth
    /// (`capacity * rate`; 1 = contention-free). On heterogeneous
    /// fabrics a slow link counts as contended by proportionally fewer
    /// transfers.
    pub max_link_contention: f64,
    /// Number of distinct links that ever exceed capacity within a step.
    pub contended_links: usize,
    /// Longest event path in hops.
    pub max_hops: usize,
    /// Mean event path length in hops.
    pub avg_hops: f64,
    /// Longest dependency chain (events that must strictly serialize) —
    /// the latency class of Table I, independent of the lockstep step
    /// numbering.
    pub critical_path: usize,
}

impl ScheduleStats {
    /// True if no link is ever oversubscribed within a lockstep step.
    pub fn is_contention_free(&self) -> bool {
        self.contended_links == 0
    }
}

/// Computes [`ScheduleStats`] for `schedule` mapped onto `topo` with an
/// all-reduce payload of `total_bytes`.
///
/// ```
/// use mt_topology::Topology;
/// use multitree::algorithms::{AllReduce, MultiTree};
/// use multitree::cost::analyze;
///
/// let topo = Topology::torus(4, 4);
/// let schedule = MultiTree::default().build(&topo)?;
/// let stats = analyze(&schedule, &topo, 16 << 20);
/// assert!(stats.is_contention_free());
/// assert!((stats.volume_ratio - 1.0).abs() < 0.01); // bandwidth optimal
/// # Ok::<(), multitree::AlgorithmError>(())
/// ```
pub fn analyze(schedule: &CommSchedule, topo: &Topology, total_bytes: u64) -> ScheduleStats {
    let n = schedule.num_nodes() as u64;
    let sent = schedule.sent_bytes_per_node(total_bytes);
    let max_sent = sent.iter().copied().max().unwrap_or(0);
    let total_sent: u64 = sent.iter().sum();
    let optimal = (2 * n.saturating_sub(1) * total_bytes).checked_div(n).unwrap_or(0);

    let mut max_contention = 0.0f64;
    let mut contended: std::collections::HashSet<LinkId> = Default::default();
    let mut max_hops = 0usize;
    let mut hop_sum = 0usize;

    for step_events in schedule.events_by_step() {
        let mut usage: HashMap<LinkId, u32> = HashMap::new();
        for &e in &step_events {
            let path = event_path(e, topo);
            max_hops = max_hops.max(path.len());
            hop_sum += path.len();
            for l in path.iter() {
                *usage.entry(*l).or_insert(0) += 1;
            }
        }
        for (l, count) in usage {
            // effective bandwidth (capacity * rate): a half-rate link is
            // "contended" by a single transfer relative to full-rate peers
            let ratio = f64::from(count) / topo.link_rate(l);
            if ratio > 1.0 {
                contended.insert(l);
            }
            max_contention = max_contention.max(ratio);
        }
    }

    let num_events = schedule.events().len();
    ScheduleStats {
        critical_path: critical_path(schedule),
        num_steps: schedule.num_steps(),
        num_events,
        total_bytes,
        max_sent_bytes: max_sent,
        total_sent_bytes: total_sent,
        optimal_bytes: optimal,
        volume_ratio: if optimal > 0 {
            total_sent as f64 / (optimal as f64 * n as f64)
        } else {
            1.0
        },
        max_link_contention: max_contention,
        contended_links: contended.len(),
        max_hops,
        avg_hops: if num_events > 0 {
            hop_sum as f64 / num_events as f64
        } else {
            0.0
        },
    }
}

/// The longest dependency chain of a schedule (in events): the number of
/// message latencies that must strictly serialize no matter how much
/// bandwidth the network offers.
pub fn critical_path(schedule: &CommSchedule) -> usize {
    let mut depth = vec![0usize; schedule.num_events()];
    let mut max = 0;
    for (i, e) in schedule.events().enumerate() {
        let d = e
            .deps()
            .iter()
            .map(|d| depth[d.index()] + 1)
            .max()
            .unwrap_or(1);
        depth[i] = d.max(1);
        max = max.max(depth[i]);
    }
    max
}

/// Per-step analytic profile (the static counterpart of the flow
/// engine's traced timeline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepProfile {
    /// Lockstep step (1-based).
    pub step: u32,
    /// Messages injected this step.
    pub messages: usize,
    /// Payload bytes injected this step.
    pub bytes: u64,
    /// Heaviest raw per-link byte load this step.
    pub max_link_bytes: u64,
    /// Heaviest per-link load this step in *base-bandwidth byte-times*:
    /// bytes divided by the link's effective rate (`capacity * rate`).
    /// Equals `max_link_bytes as f64` on uniform unit-capacity fabrics;
    /// on heterogeneous ones a slow link dominates proportionally.
    pub max_link_load: f64,
    /// Distinct links carrying traffic this step.
    pub links_used: usize,
}

/// Profiles every lockstep step of a schedule: message counts, injected
/// bytes and per-link load — what the NI lockstep estimator and the
/// link-utilization discussion in §IV-A reason about.
pub fn step_profile(schedule: &CommSchedule, topo: &Topology, total_bytes: u64) -> Vec<StepProfile> {
    schedule
        .events_by_step()
        .iter()
        .enumerate()
        .map(|(i, events)| {
            let mut link_bytes: HashMap<LinkId, u64> = HashMap::new();
            let mut bytes = 0u64;
            for &e in events {
                let b = e.bytes(total_bytes, schedule.total_segments());
                bytes += b;
                for l in event_path(e, topo).iter() {
                    *link_bytes.entry(*l).or_insert(0) += b;
                }
            }
            StepProfile {
                step: i as u32 + 1,
                messages: events.len(),
                bytes,
                max_link_bytes: link_bytes.values().copied().max().unwrap_or(0),
                max_link_load: link_bytes
                    .iter()
                    .map(|(l, b)| *b as f64 / topo.link_rate(*l))
                    .fold(0.0, f64::max),
                links_used: link_bytes.len(),
            }
        })
        .collect()
}

/// The physical link path an event takes: its explicit allocation if the
/// algorithm provided one, otherwise the topology's deterministic route.
///
/// Borrows the event's stored path when one exists (the common case for
/// link-allocating algorithms like MultiTree), allocating only when a
/// route must be computed.
pub fn event_path<'e>(e: CommEvent<'e>, topo: &Topology) -> Cow<'e, [LinkId]> {
    match e.path() {
        Some(p) => Cow::Borrowed(p),
        None => Cow::Owned(topo.route(e.src.into(), e.dst.into())),
    }
}

/// A quick alpha-beta time estimate in nanoseconds: per step, the maximum
/// of per-link serialization (contention-aware) plus per-hop latency.
///
/// `link_bw` is in bytes/ns (e.g. 16.0 for 16 GB/s), `hop_latency_ns` the
/// per-link latency.
pub fn alpha_beta_time_ns(
    schedule: &CommSchedule,
    topo: &Topology,
    total_bytes: u64,
    link_bw: f64,
    hop_latency_ns: f64,
) -> f64 {
    assert!(link_bw > 0.0, "bandwidth must be positive");
    let mut total = 0.0;
    for step_events in schedule.events_by_step() {
        let mut link_bytes: HashMap<LinkId, u64> = HashMap::new();
        let mut max_hops = 0usize;
        for &e in &step_events {
            let bytes = e.bytes(total_bytes, schedule.total_segments());
            let path = event_path(e, topo);
            max_hops = max_hops.max(path.len());
            for l in path.iter() {
                *link_bytes.entry(*l).or_insert(0) += bytes;
            }
        }
        let ser = link_bytes
            .iter()
            .map(|(l, b)| *b as f64 / (link_bw * topo.link_rate(*l)))
            .fold(0.0, f64::max);
        total += ser + max_hops as f64 * hop_latency_ns;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AllReduce, DbTree, MultiTree, Ring, Ring2D};

    #[test]
    fn ring_is_contention_free_and_optimal() {
        let topo = Topology::torus(4, 4);
        let s = Ring.build(&topo).unwrap();
        let st = analyze(&s, &topo, 16 << 20);
        assert!(st.is_contention_free());
        assert!((st.volume_ratio - 1.0).abs() < 0.01);
        assert_eq!(st.max_hops, 1);
        assert_eq!(st.num_steps, 30);
    }

    #[test]
    fn multitree_is_contention_free_and_optimal() {
        for topo in [
            Topology::torus(4, 4),
            Topology::torus(8, 8),
            Topology::mesh(4, 4),
            Topology::dgx2_like_16(),
            Topology::bigraph_32(),
        ] {
            let s = MultiTree::default().build(&topo).unwrap();
            let st = analyze(&s, &topo, 16 << 20);
            assert!(
                st.is_contention_free(),
                "multitree contended on {:?}: {st:?}",
                topo.kind()
            );
            assert!(st.volume_ratio < 1.05, "volume ratio {}", st.volume_ratio);
        }
    }

    #[test]
    fn dbtree_contends_on_torus() {
        // Table I: DBTree has high contention on unfriendly topologies.
        let topo = Topology::torus(8, 8);
        let s = DbTree::default().build(&topo).unwrap();
        let st = analyze(&s, &topo, 16 << 20);
        assert!(!st.is_contention_free());
        assert!(st.max_hops > 1);
    }

    #[test]
    fn ring2d_volume_is_suboptimal() {
        let topo = Topology::torus(8, 8);
        let s = Ring2D.build(&topo).unwrap();
        let st = analyze(&s, &topo, 1 << 20);
        assert!(st.volume_ratio > 1.5, "ratio {}", st.volume_ratio);
        assert!(st.is_contention_free());
    }

    #[test]
    fn critical_paths_match_latency_classes() {
        use crate::algorithms::HalvingDoubling;
        let topo = Topology::torus(8, 8);
        let bytes = 1 << 20;
        let cp = |s: &crate::CommSchedule| analyze(s, &topo, bytes).critical_path;
        let ring = cp(&Ring.build(&topo).unwrap());
        let mt = cp(&MultiTree::default().build(&topo).unwrap());
        let hd = cp(&HalvingDoubling.build(&topo).unwrap());
        // ring's chain is linear in n; multitree's is ~2x construction
        // steps; HD's is 2 log2 n — the Table I latency ordering
        assert_eq!(ring, 126);
        assert_eq!(hd, 12);
        assert!(mt < ring / 3, "multitree chain {mt}");
        assert!(hd <= mt, "hd chain {hd} vs multitree {mt}");
    }

    #[test]
    fn multitree_fewer_steps_than_ring() {
        let topo = Topology::torus(8, 8);
        let ring = analyze(&Ring.build(&topo).unwrap(), &topo, 1 << 20);
        let mt = analyze(
            &MultiTree::default().build(&topo).unwrap(),
            &topo,
            1 << 20,
        );
        assert!(mt.num_steps < ring.num_steps / 3);
    }

    #[test]
    fn step_profile_shapes() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let prof = step_profile(&s, &topo, 16 << 20);
        assert_eq!(prof.len(), s.num_steps() as usize);
        // total injected bytes across steps == total sent volume
        let total: u64 = prof.iter().map(|p| p.bytes).sum();
        let sent: u64 = s.sent_bytes_per_node(16 << 20).iter().sum();
        assert_eq!(total, sent);
        // the construction's insight: middle steps are the widest
        let first = prof.first().unwrap().messages;
        let mid = prof[prof.len() / 2].messages;
        assert!(mid >= first);
        // contention-free: per-link load never exceeds one chunk per step
        let chunk = (16u64 << 20) / 16;
        assert!(prof.iter().all(|p| p.max_link_bytes <= chunk));
        // uniform unit-capacity torus: the rate-normalized load is the
        // byte load exactly
        assert!(prof.iter().all(|p| p.max_link_load == p.max_link_bytes as f64));
    }

    #[test]
    fn step_profile_and_alpha_beta_see_slow_links() {
        let uniform = Topology::torus(4, 4);
        let s = MultiTree::default().build(&uniform).unwrap();
        let slow: Vec<(LinkId, u32, u32)> = (0..uniform.num_links())
            .map(|i| (LinkId::new(i), 1, 2))
            .collect();
        let topo = uniform.with_link_rates(&slow).unwrap();
        let bytes = 16 << 20;
        // every link at half rate: serialization doubles, step structure
        // identical
        let pu = step_profile(&s, &uniform, bytes);
        let ph = step_profile(&s, &topo, bytes);
        for (u, h) in pu.iter().zip(&ph) {
            assert_eq!(u.max_link_bytes, h.max_link_bytes);
            assert_eq!(h.max_link_load, 2.0 * u.max_link_load);
        }
        let tu = alpha_beta_time_ns(&s, &uniform, bytes, 16.0, 150.0);
        let th = alpha_beta_time_ns(&s, &topo, bytes, 16.0, 150.0);
        assert!(th > tu, "half-rate links must cost time: {th} !> {tu}");
    }

    #[test]
    fn alpha_beta_ordering_for_large_data() {
        // For large payloads on a torus, multitree should beat 2d-ring
        // (half the volume) and 2d-ring should beat nothing-special ring
        // only on step count, not bandwidth.
        let topo = Topology::torus(8, 8);
        let d = 64 << 20;
        let t_mt = alpha_beta_time_ns(
            &MultiTree::default().build(&topo).unwrap(),
            &topo,
            d,
            16.0,
            150.0,
        );
        let t_2d = alpha_beta_time_ns(&Ring2D.build(&topo).unwrap(), &topo, d, 16.0, 150.0);
        assert!(t_mt < t_2d, "multitree {t_mt} !< ring2d {t_2d}");
    }
}
