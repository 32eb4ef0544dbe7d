//! Property tests for the pod partitioner (`mt_topology::Partition`),
//! the foundation under the hierarchical MultiTree composition. Over
//! every topology family plus seeded random connected graphs:
//!
//! * partitioning is deterministic (same inputs, identical partition);
//! * the pods cover every node exactly once, and `pod_of_node` agrees
//!   with pod membership;
//! * the requested pod count is honored after clamping to `1..=n`, and
//!   each pod's representative is its lowest node id.

use mt_topology::{LinkId, NodeId, Partition, Topology, TopologyBuilder, Vertex};
use proptest::prelude::*;

/// Seeded random connected graph: a ring backbone over `n` nodes (so it
/// is connected by construction) plus `extra` chords from a tiny LCG.
fn random_connected(n: usize, extra: usize, seed: u64) -> Topology {
    let mut b = TopologyBuilder::default();
    let nodes = b.add_nodes(n);
    for i in 0..n {
        b.add_bidi(Vertex::from(nodes[i]), Vertex::from(nodes[(i + 1) % n]));
    }
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..extra {
        let a = next() % n;
        let c = next() % n;
        if a != c {
            b.add_bidi(Vertex::from(nodes[a]), Vertex::from(nodes[c]));
        }
    }
    b.build().unwrap()
}

/// One topology from each family, driven by the proptest parameters.
fn family(idx: usize, a: usize, b: usize, seed: u64) -> Topology {
    match idx {
        0 => Topology::torus(a.max(2), b.max(2)),
        1 => Topology::mesh(a.max(2), b.max(2)),
        2 => Topology::fat_tree_two_level(a.max(2), b.clamp(1, 4), 2),
        3 => Topology::bigraph(a.clamp(1, 4), b.max(2), 2),
        4 => Topology::hypercube((a % 6 + 1) as u32),
        5 => Topology::dragonfly(a.clamp(2, 4), b.clamp(1, 3)),
        6 => Topology::torus3d(a.clamp(2, 4), b.clamp(2, 4), 2),
        _ => random_connected(a.max(3) * b.max(2), seed as usize % 16, seed),
    }
}

fn assert_partition_sound(topo: &Topology, part: &Partition, label: &str) {
    let n = topo.num_nodes();
    // every node in exactly one pod, consistent with pod_of_node
    let mut seen = vec![0u32; n];
    for p in 0..part.num_pods() {
        assert!(!part.pod_nodes(p).is_empty(), "{label}: empty pod {p}");
        for &node in part.pod_nodes(p) {
            seen[node.index()] += 1;
            assert_eq!(part.pod_of_node(node), p, "{label}: membership mismatch");
        }
        // representative = lowest node id of the pod
        let min = part.pod_nodes(p).iter().copied().min().unwrap();
        assert_eq!(part.representative(p), min, "{label}: rep not min of pod {p}");
    }
    assert!(
        seen.iter().all(|&c| c == 1),
        "{label}: nodes not covered exactly once"
    );
}

/// Soundness of [`Partition::quotient`] against its contract:
///
/// * the quotient has one compute node per pod and no switches;
/// * the back-mapping is **exact-once**: every enabled inter-pod link
///   appears behind exactly one quotient link, intra-pod and disabled
///   links never appear, cable lists are ascending and non-empty, and
///   the concrete endpoints' pods match the quotient link's endpoints;
/// * quotient link capacity is the summed capacity of its cables;
/// * the quotient is connected iff the inter-pod cabling connects the
///   pods (checked against an independent union-find).
fn gcd128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

fn assert_quotient_sound(topo: &Topology, part: &Partition, label: &str) {
    let q = part.quotient(topo);
    let qt = q.topology();
    let p_count = part.num_pods();
    assert_eq!(q.num_pods(), p_count, "{label}: quotient pod count");
    assert_eq!(qt.num_nodes(), p_count, "{label}: one quotient node per pod");
    assert_eq!(qt.num_switches(), 0, "{label}: quotient has no switches");

    let mut times_mapped = vec![0u32; topo.num_links()];
    for qi in 0..qt.num_links() {
        let ql = LinkId::new(qi);
        let qlink = qt.link(ql);
        let (sp, dp) = (qt.vertex_index(qlink.src), qt.vertex_index(qlink.dst));
        assert_ne!(sp, dp, "{label}: quotient self-loop");
        let cables = q.cables(ql);
        assert!(!cables.is_empty(), "{label}: quotient link without cables");
        for w in cables.windows(2) {
            assert!(w[0].index() < w[1].index(), "{label}: cables not ascending");
        }
        let mut cap = 0u32;
        // exact rational aggregate of capacity * rate over the bundle,
        // recomputed independently of the quotient implementation
        let mut agg_num: u128 = 0;
        let mut agg_den: u128 = 1;
        let mut distinct: Vec<(u32, u32)> = Vec::new();
        for &c in cables {
            times_mapped[c.index()] += 1;
            let l = topo.link(c);
            assert!(!topo.is_link_disabled(c), "{label}: disabled cable mapped");
            assert_eq!(part.pod_of_vertex(l.src), sp, "{label}: cable src pod");
            assert_eq!(part.pod_of_vertex(l.dst), dp, "{label}: cable dst pod");
            cap += l.capacity;
            let g = gcd128(u128::from(l.rate_num), u128::from(l.rate_den));
            distinct.push((
                (u128::from(l.rate_num) / g) as u32,
                (u128::from(l.rate_den) / g) as u32,
            ));
            agg_num = agg_num * u128::from(l.rate_den)
                + u128::from(l.capacity) * u128::from(l.rate_num) * agg_den;
            agg_den *= u128::from(l.rate_den);
            let g = gcd128(agg_num, agg_den);
            agg_num /= g;
            agg_den /= g;
        }
        assert_eq!(qlink.capacity, cap, "{label}: quotient capacity != cable sum");
        // rate carry-through: the quotient link's effective bandwidth
        // (capacity * rate) equals the bundle aggregate exactly, and
        // cable_rates lists exactly the distinct reduced cable rates
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            q.cable_rates(ql),
            &distinct[..],
            "{label}: cable_rates mismatch on quotient link {qi}"
        );
        let lhs_num = u128::from(qlink.capacity) * u128::from(qlink.rate_num);
        let lhs_den = u128::from(qlink.rate_den);
        assert_eq!(
            lhs_num * agg_den,
            agg_num * lhs_den,
            "{label}: quotient link {qi} effective rate != cable aggregate"
        );
        if distinct == [(1, 1)] {
            assert!(
                qlink.rate_num == qlink.rate_den,
                "{label}: full-rate bundle must yield a full-rate quotient link"
            );
        }
    }
    for (i, &mapped) in times_mapped.iter().enumerate() {
        let id = LinkId::new(i);
        let l = topo.link(id);
        let inter = !topo.is_link_disabled(id)
            && part.pod_of_vertex(l.src) != part.pod_of_vertex(l.dst);
        assert_eq!(
            mapped,
            u32::from(inter),
            "{label}: link {i} mapped {mapped} times (inter-pod: {inter})"
        );
    }

    // connected iff the inter-pod cabling connects the pods
    let mut parent: Vec<usize> = (0..p_count).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            parent[r] = parent[parent[r]];
            r = parent[r];
        }
        r
    }
    for i in 0..topo.num_links() {
        let id = LinkId::new(i);
        if topo.is_link_disabled(id) {
            continue;
        }
        let l = topo.link(id);
        let (a, b) = (part.pod_of_vertex(l.src), part.pod_of_vertex(l.dst));
        if a != b {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
    }
    let root = find(&mut parent, 0);
    let pods_connected = (1..p_count).all(|p| find(&mut parent, p) == root);
    assert_eq!(
        qt.is_connected(),
        pods_connected,
        "{label}: quotient connectivity disagrees with inter-pod cabling"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn partitions_are_deterministic_and_sound(
        idx in 0usize..8,
        a in 2usize..8,
        b in 2usize..6,
        pods in 1usize..12,
        seed: u64,
    ) {
        let topo = family(idx, a, b, seed);
        let label = format!("family {idx} a={a} b={b} pods={pods} seed={seed}");

        let bal = Partition::balanced(&topo, pods);
        prop_assert_eq!(
            bal.num_pods(),
            pods.clamp(1, topo.num_nodes()),
            "{}: clamped pod count", &label
        );
        assert_partition_sound(&topo, &bal, &label);
        // determinism: same inputs, identical partition
        prop_assert_eq!(&bal, &Partition::balanced(&topo, pods), "{}: balanced", &label);

        let auto = Partition::auto(&topo);
        assert_partition_sound(&topo, &auto, &label);
        prop_assert_eq!(&auto, &Partition::auto(&topo), "{}: auto", &label);

        if let Some(nat) = Partition::natural(&topo) {
            assert_partition_sound(&topo, &nat, &label);
            prop_assert_eq!(&nat, &Partition::natural(&topo).unwrap(), "{}: natural", &label);
        }
    }

    #[test]
    fn one_pod_per_node_and_single_pod_extremes(
        idx in 0usize..8,
        a in 2usize..6,
        b in 2usize..5,
        seed: u64,
    ) {
        let topo = family(idx, a, b, seed);
        let n = topo.num_nodes();
        let single = Partition::balanced(&topo, 1);
        prop_assert_eq!(single.num_pods(), 1);
        prop_assert_eq!(single.pod_nodes(0).len(), n);
        let shattered = Partition::balanced(&topo, n);
        prop_assert_eq!(shattered.num_pods(), n);
        for p in 0..n {
            prop_assert_eq!(shattered.pod_nodes(p), &[NodeId::new(p)][..]);
        }
    }

    #[test]
    fn quotients_are_deterministic_and_sound(
        idx in 0usize..8,
        a in 2usize..8,
        b in 2usize..6,
        pods in 1usize..12,
        seed: u64,
    ) {
        let topo = family(idx, a, b, seed);
        let label = format!("family {idx} a={a} b={b} pods={pods} seed={seed}");

        let part = Partition::balanced(&topo, pods);
        assert_quotient_sound(&topo, &part, &label);
        // determinism: same inputs, identical quotient
        prop_assert_eq!(
            part.quotient(&topo) == part.quotient(&topo),
            true,
            "{}: quotient not deterministic", &label
        );
        assert_quotient_sound(&topo, &Partition::auto(&topo), &label);

        // degenerate extremes: one pod (no inter-pod links at all) and
        // one pod per node (every enabled inter-pod link is a cable)
        let single = Partition::balanced(&topo, 1);
        let q1 = single.quotient(&topo);
        prop_assert_eq!(q1.num_pods(), 1, "{}: 1-pod quotient", &label);
        prop_assert_eq!(q1.topology().num_links(), 0, "{}: 1-pod links", &label);
        prop_assert!(q1.topology().is_connected(), "{}: 1-pod connected", &label);
        assert_quotient_sound(&topo, &single, &label);
        let shattered = Partition::balanced(&topo, topo.num_nodes());
        assert_quotient_sound(&topo, &shattered, &label);
    }

    #[test]
    fn quotient_rates_carry_through_heterogeneous_fabrics(
        idx in 0usize..8,
        a in 2usize..7,
        b in 2usize..5,
        pods in 2usize..8,
        slows in 1usize..12,
        seed: u64,
    ) {
        // re-rate a seeded subset of links, then the quotient must carry
        // the exact rational aggregate bandwidth per cable bundle (the
        // rate checks live in assert_quotient_sound)
        let base = family(idx, a, b, seed);
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let rerates: Vec<(LinkId, u32, u32)> = (0..slows)
            .map(|_| {
                let l = LinkId::new(next() % base.num_links());
                (l, (next() % 3 + 1) as u32, (next() % 7 + 1) as u32)
            })
            .collect();
        let topo = base.with_link_rates(&rerates).unwrap();
        let label = format!(
            "hetero family {idx} a={a} b={b} pods={pods} slows={slows} seed={seed}"
        );
        let part = Partition::balanced(&topo, pods);
        assert_quotient_sound(&topo, &part, &label);
        // determinism extends to the rate annotations
        prop_assert_eq!(
            part.quotient(&topo) == part.quotient(&topo),
            true,
            "{}: heterogeneous quotient not deterministic", &label
        );
    }

    #[test]
    fn quotient_tracks_degraded_views(
        a in 3usize..7,
        b in 3usize..6,
        pods in 2usize..6,
        kill in 0usize..8,
        seed: u64,
    ) {
        // disabled links must vanish from the quotient's back-mapping
        let topo = Topology::torus(a, b);
        let part = Partition::balanced(&topo, pods);
        let mut state = seed | 1;
        let mut dead = Vec::new();
        for _ in 0..kill {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            dead.push(LinkId::new((state >> 33) as usize % topo.num_links()));
        }
        let degraded = topo.without_links(&dead);
        let label = format!("degraded torus {a}x{b} pods={pods} dead={}", dead.len());
        assert_quotient_sound(&degraded, &part, &label);
    }
}
