//! Byte pins for serialized schedules: the FNV-1a 64 digest of
//! `serde_json::to_string(&schedule)` for every shipped builder on four
//! small fabrics, plus the composed, repaired and hierarchical shapes.
//! Any change to how `CommSchedule` stores or serializes its events must
//! keep these bytes; a digest that moves means persisted schedules moved.

use mt_serve::AlgorithmSpec;
use mt_topology::{LinkId, NodeId, Topology};
use multitree::algorithms::{repair_multitree, AllReduce, HierarchicalMultiTree, MultiTree, Ring};
use multitree::CommSchedule;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(s: &CommSchedule) -> String {
    format!("{:016x}", fnv64(serde_json::to_string(s).unwrap().as_bytes()))
}

const ALGORITHMS: [AlgorithmSpec; 10] = [
    AlgorithmSpec::Ring,
    AlgorithmSpec::DbTree,
    AlgorithmSpec::Ring2D,
    AlgorithmSpec::HalvingDoubling,
    AlgorithmSpec::Hdrm,
    AlgorithmSpec::Blink,
    AlgorithmSpec::MultiTree,
    AlgorithmSpec::MultiTreeBandwidthAware,
    AlgorithmSpec::Hierarchical,
    AlgorithmSpec::HierarchicalBandwidthAware,
];

fn fabrics() -> [(&'static str, Topology); 4] {
    [
        ("torus4x4", Topology::torus(4, 4)),
        ("mesh4x4", Topology::mesh(4, 4)),
        ("fattree16", Topology::fat_tree_two_level(4, 2, 4)),
        ("bigraph32", Topology::bigraph_32()),
    ]
}

/// `(label, digest)` for every case, in a fixed order; unsupported
/// builder/fabric pairs digest as `"unsupported"`.
fn actual() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, topo) in fabrics() {
        for algo in ALGORITHMS {
            let d = algo
                .build(&topo)
                .map_or_else(|_| "unsupported".to_string(), |s| digest(&s));
            out.push((format!("{name}/{}", algo.name()), d));
        }
    }
    let torus = Topology::torus(4, 4);
    let mt = MultiTree::default();
    let forest = mt.construct_forest(&torus).unwrap();
    let repaired = repair_multitree(&mt, &torus, &forest, &[LinkId::new(0)], &[]).unwrap();
    out.push(("torus4x4/repaired-link0".into(), digest(&repaired.schedule)));
    let hier = HierarchicalMultiTree::default()
        .build(&Topology::fat_tree_64())
        .unwrap();
    out.push(("fattree64/hierarchical".into(), digest(&hier)));
    out.push((
        "torus4x4/reduce-scatter".into(),
        digest(&mt.build_reduce_scatter(&torus).unwrap()),
    ));
    out.push((
        "torus4x4/all-gather".into(),
        digest(&mt.build_all_gather(&torus).unwrap()),
    ));
    out.push((
        "torus4x4/broadcast".into(),
        digest(&mt.build_broadcast(&torus, NodeId::new(5)).unwrap()),
    ));
    out.push((
        "torus4x4/all-to-all".into(),
        digest(&mt.build_all_to_all(&torus).unwrap().schedule),
    ));
    let ring = Ring.build(&torus).unwrap();
    let tree = mt.build(&torus).unwrap();
    out.push(("torus4x4/ring-then-multitree".into(), digest(&ring.then(&tree))));
    out.push((
        "torus4x4/ring-merge-multitree".into(),
        digest(&ring.merge_concurrent(&tree)),
    ));
    out
}

const PINS: &[(&str, &str)] = &[
    ("torus4x4/RING", "dfa5d753cd5b8cf3"),
    ("torus4x4/DBTREE", "6c10c82a045d6ad9"),
    ("torus4x4/2DRING", "24f81efa83e910c6"),
    ("torus4x4/HD", "7bfcf6a692e6a51c"),
    ("torus4x4/HDRM", "unsupported"),
    ("torus4x4/BLINK", "bfdffb29034ee7c8"),
    ("torus4x4/MULTITREE", "991b30aa02e311b6"),
    ("torus4x4/MULTITREE-BW", "991b30aa02e311b6"),
    ("torus4x4/MULTITREE-HIER", "3d55624f369cf693"),
    ("torus4x4/MULTITREE-HIER-BW", "3d55624f369cf693"),
    ("mesh4x4/RING", "dfa5d753cd5b8cf3"),
    ("mesh4x4/DBTREE", "6c10c82a045d6ad9"),
    ("mesh4x4/2DRING", "24f81efa83e910c6"),
    ("mesh4x4/HD", "7bfcf6a692e6a51c"),
    ("mesh4x4/HDRM", "unsupported"),
    ("mesh4x4/BLINK", "6561a67a866f9a9e"),
    ("mesh4x4/MULTITREE", "d5498c5a18aedfeb"),
    ("mesh4x4/MULTITREE-BW", "d5498c5a18aedfeb"),
    ("mesh4x4/MULTITREE-HIER", "baec4fb0d838004e"),
    ("mesh4x4/MULTITREE-HIER-BW", "baec4fb0d838004e"),
    ("fattree16/RING", "b75c8fcca52830c7"),
    ("fattree16/DBTREE", "6c10c82a045d6ad9"),
    ("fattree16/2DRING", "unsupported"),
    ("fattree16/HD", "7bfcf6a692e6a51c"),
    ("fattree16/HDRM", "unsupported"),
    ("fattree16/BLINK", "7770748c52f5bc8c"),
    ("fattree16/MULTITREE", "b0d51824168a798c"),
    ("fattree16/MULTITREE-BW", "b0d51824168a798c"),
    ("fattree16/MULTITREE-HIER", "f3701e46c86aa919"),
    ("fattree16/MULTITREE-HIER-BW", "f3701e46c86aa919"),
    ("bigraph32/RING", "591b694be7ebdaee"),
    ("bigraph32/DBTREE", "05d95cd11137dc0a"),
    ("bigraph32/2DRING", "unsupported"),
    ("bigraph32/HD", "6906045f3196bbd7"),
    ("bigraph32/HDRM", "e0a0a982c218e2b8"),
    ("bigraph32/BLINK", "416668a5ec4610ab"),
    ("bigraph32/MULTITREE", "115f3ec0d8259679"),
    ("bigraph32/MULTITREE-BW", "115f3ec0d8259679"),
    ("bigraph32/MULTITREE-HIER", "32f511356474306c"),
    ("bigraph32/MULTITREE-HIER-BW", "32f511356474306c"),
    ("torus4x4/repaired-link0", "023b05db06307d6a"),
    ("fattree64/hierarchical", "b6a11c5a4dd3e928"),
    ("torus4x4/reduce-scatter", "fc0af575af07809e"),
    ("torus4x4/all-gather", "9c8c477aad5b0858"),
    ("torus4x4/broadcast", "a0d555512dde73d1"),
    ("torus4x4/all-to-all", "d9ad28477265b6e7"),
    ("torus4x4/ring-then-multitree", "98c73ac688100e3e"),
    ("torus4x4/ring-merge-multitree", "46a5a450c7d9ad48"),
];

#[test]
fn serialized_schedules_keep_their_bytes() {
    let actual = actual();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(k, d)| format!("    (\"{k}\", \"{d}\"),"))
        .collect();
    let got: Vec<(&str, &str)> = actual.iter().map(|(k, d)| (k.as_str(), d.as_str())).collect();
    assert_eq!(got, PINS, "actual pins:\n{}", rendered.join("\n"));
}

#[test]
fn pinned_schedules_round_trip() {
    for (_, topo) in fabrics() {
        for algo in ALGORITHMS {
            let Ok(s) = algo.build(&topo) else { continue };
            let json = serde_json::to_string(&s).unwrap();
            let back: CommSchedule = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }
}
