//! Golden pins for the flow engine: every report of the flow corpus in
//! `corpus/mod.rs` — the shared cells healthy and under flap, degrade,
//! dead-link and node-crash plans, the flow-only configuration cells, and
//! the `engine-sweep` keys at 1 MiB — is pinned bit for bit, together
//! with a hash of the observer stream (event start/finish, link busy,
//! fault and timeout hooks, all with original event ids). The engine's
//! queue and data layout are free to change, never its results; a
//! failure here means simulated output moved.
//!
//! To re-record the table after a deliberate change of simulated
//! output, run
//! `cargo test -p mt-netsim --test flow_golden_reports -- --ignored --nocapture`
//! and paste the printed rows over `GOLDEN`.

mod corpus;

#[test]
fn flow_corpus_reports_are_pinned() {
    let runs = corpus::run_flow_corpus();
    assert_eq!(
        runs.len(),
        GOLDEN.len(),
        "corpus and golden table differ in size"
    );
    for ((label, got), &(want_label, want)) in runs.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "corpus order drifted");
        assert_eq!(got, want, "report drifted: {label}");
    }
}

#[test]
#[ignore = "prints the golden table; run with --ignored --nocapture"]
fn print_flow_golden_table() {
    for (label, fp) in corpus::run_flow_corpus() {
        println!("    (\n        {label:?},\n        {fp:?},\n    ),");
    }
}

/// `(run label, fingerprint)` for every flow corpus run, in corpus order.
const GOLDEN: &[(&str, &str)] = &[
    (
        "torus4x4/multitree/packet/32KiB/healthy",
        "bytes=32768 completion=0x40a3100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | stream=0x7ad99439b9d6567d",
    ),
    (
        "torus4x4/multitree/packet/32KiB/flap",
        "bytes=32768 completion=0x40a5500000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a5500000000000 stalled=false window=0x40e86a0000000000 | stream=0x0cd6d1af845920d3",
    ),
    (
        "torus4x4/multitree/packet/32KiB/degrade",
        "bytes=32768 completion=0x40aef00000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40f0780000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40aef00000000000 stalled=false window=0x40e86a0000000000 | stream=0x408257cfbc04f06d",
    ),
    (
        "torus4x4/multitree/packet/32KiB/dead-link",
        "bytes=32768 completion=0x40bd100000000000 flits=64328 heads=3784 msgs=480 flit_hops=64328 head_hops=3784 links=64/64 busy=0x40ef140000000000 | delivered=468/480 lost=[17, 114, 380, 477, 359] first_undelivered=Some(6) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000 | stream=0x3c5fea53f935997b",
    ),
    (
        "torus4x4/multitree/packet/32KiB/node-crash",
        "bytes=32768 completion=0x40bd100000000000 flits=59704 heads=3512 msgs=480 flit_hops=59704 head_hops=3512 links=64/64 busy=0x40ed270000000000 | delivered=439/480 lost=[161, 285, 286, 287, 288, 262, 264, 413, 56, 145, 147, 358, 29] first_undelivered=Some(5) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000 | stream=0xf9259ceeff2fbd9f",
    ),
    (
        "torus4x4/multitree/message/32KiB/healthy",
        "bytes=32768 completion=0x40a2920000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40ee3c0000000000 | stream=0xdec20d84cb27a2f9",
    ),
    (
        "torus4x4/multitree/message/32KiB/flap",
        "bytes=32768 completion=0x40a4c40000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40ee3c0000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a4c40000000000 stalled=false window=0x40e86a0000000000 | stream=0x02a2d3f95139193d",
    ),
    (
        "torus4x4/multitree/message/32KiB/degrade",
        "bytes=32768 completion=0x40ad680000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40ef3e0000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40ad680000000000 stalled=false window=0x40e86a0000000000 | stream=0x16472f957f0e2646",
    ),
    (
        "torus4x4/multitree/message/32KiB/dead-link",
        "bytes=32768 completion=0x40bcd10000000000 flits=61017 heads=473 msgs=480 flit_hops=61017 head_hops=473 links=64/64 busy=0x40ed7a8000000000 | delivered=468/480 lost=[17, 114, 380, 477, 359] first_undelivered=Some(6) last_progress=0x40a2920000000000 stalled=true window=0x40b3880000000000 | stream=0x51300aa249e4f3f1",
    ),
    (
        "torus4x4/multitree/message/32KiB/node-crash",
        "bytes=32768 completion=0x40bcd10000000000 flits=56631 heads=439 msgs=480 flit_hops=56631 head_hops=439 links=64/64 busy=0x40eba6e000000000 | delivered=439/480 lost=[161, 285, 286, 287, 288, 262, 264, 413, 56, 145, 147, 358, 29] first_undelivered=Some(5) last_progress=0x40a2920000000000 stalled=true window=0x40b3880000000000 | stream=0xd4f7c990778655a6",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/healthy",
        "bytes=32768 completion=0x40a4200000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | stream=0x5b16b1a633fc1cb3",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/flap",
        "bytes=32768 completion=0x40a4200000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a4200000000000 stalled=false window=0x40e86a0000000000 | stream=0x948fd61f1f1c0164",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/degrade",
        "bytes=32768 completion=0x40aa400000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40f0670000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40aa400000000000 stalled=false window=0x40e86a0000000000 | stream=0x7d89576d4155d5f3",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/dead-link",
        "bytes=32768 completion=0x40bd980000000000 flits=64328 heads=3784 msgs=480 flit_hops=64328 head_hops=3784 links=64/64 busy=0x40ef140000000000 | delivered=468/480 lost=[17, 114, 380, 477, 359] first_undelivered=Some(6) last_progress=0x40a4200000000000 stalled=true window=0x40b3880000000000 | stream=0x1134315e799521d9",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/node-crash",
        "bytes=32768 completion=0x40bd980000000000 flits=59704 heads=3512 msgs=480 flit_hops=59704 head_hops=3512 links=64/64 busy=0x40ed270000000000 | delivered=439/480 lost=[161, 285, 286, 287, 288, 262, 264, 413, 56, 145, 147, 358, 29] first_undelivered=Some(5) last_progress=0x40a4200000000000 stalled=true window=0x40b3880000000000 | stream=0x6c83e8df887927da",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/healthy",
        "bytes=32768 completion=0x40a3100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | stream=0x7ad99439b9d6567d",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/flap",
        "bytes=32768 completion=0x40a5500000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a5500000000000 stalled=false window=0x40e86a0000000000 | stream=0x0cd6d1af845920d3",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/degrade",
        "bytes=32768 completion=0x40aef00000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40f0780000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40aef00000000000 stalled=false window=0x40e86a0000000000 | stream=0x408257cfbc04f06d",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/dead-link",
        "bytes=32768 completion=0x40bd100000000000 flits=64328 heads=3784 msgs=480 flit_hops=64328 head_hops=3784 links=64/64 busy=0x40ef140000000000 | delivered=468/480 lost=[17, 114, 380, 477, 359] first_undelivered=Some(6) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000 | stream=0x3c5fea53f935997b",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/node-crash",
        "bytes=32768 completion=0x40bd100000000000 flits=59704 heads=3512 msgs=480 flit_hops=59704 head_hops=3512 links=64/64 busy=0x40ed270000000000 | delivered=439/480 lost=[161, 285, 286, 287, 288, 262, 264, 413, 56, 145, 147, 358, 29] first_undelivered=Some(5) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000 | stream=0xf9259ceeff2fbd9f",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/healthy",
        "bytes=32768 completion=0x40a3100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | stream=0x7ad99439b9d6567d",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/flap",
        "bytes=32768 completion=0x40a5500000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a5500000000000 stalled=false window=0x40e86a0000000000 | stream=0x0cd6d1af845920d3",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/degrade",
        "bytes=32768 completion=0x40aef00000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40f0780000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40aef00000000000 stalled=false window=0x40e86a0000000000 | stream=0x408257cfbc04f06d",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/dead-link",
        "bytes=32768 completion=0x40bd100000000000 flits=64328 heads=3784 msgs=480 flit_hops=64328 head_hops=3784 links=64/64 busy=0x40ef140000000000 | delivered=468/480 lost=[17, 114, 380, 477, 359] first_undelivered=Some(6) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000 | stream=0x3c5fea53f935997b",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/node-crash",
        "bytes=32768 completion=0x40bd100000000000 flits=59704 heads=3512 msgs=480 flit_hops=59704 head_hops=3512 links=64/64 busy=0x40ed270000000000 | delivered=439/480 lost=[161, 285, 286, 287, 288, 262, 264, 413, 56, 145, 147, 358, 29] first_undelivered=Some(5) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000 | stream=0xf9259ceeff2fbd9f",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40b2040000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 | stream=0xb809c9e8baa7a6d7",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/flap",
        "bytes=16384 completion=0x40b4720000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b4720000000000 stalled=false window=0x40e86a0000000000 | stream=0x76ef50deaa92c9fa",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40c2a60000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e9e60000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c2a60000000000 stalled=false window=0x40e86a0000000000 | stream=0x1f99637cd5846de7",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c2c60000000000 flits=30464 heads=1792 msgs=480 flit_hops=45696 head_hops=2688 links=44/64 busy=0x40e5400000000000 | delivered=424/480 lost=[365, 366, 136, 374, 375, 151, 389, 390, 404, 405, 166, 419, 420, 434, 435, 181, 448, 449, 462, 463, 196, 211, 225, 235] first_undelivered=Some(28) last_progress=0x40b2040000000000 stalled=true window=0x40b3880000000000 | stream=0x2c5fbc20e1c08885",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c2c60000000000 flits=31552 heads=1856 msgs=480 flit_hops=46784 head_hops=2752 links=44/64 busy=0x40e6d80000000000 | delivered=464/480 lost=[139, 140, 154, 155, 169, 170, 184, 185, 199, 200, 214, 215, 226, 227, 236, 237] first_undelivered=Some(29) last_progress=0x40b2040000000000 stalled=true window=0x40b3880000000000 | stream=0xefb9e8ee5b27c193",
    ),
    (
        "torus4x4/dbtree/message/16KiB/healthy",
        "bytes=16384 completion=0x40b20b0000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=45/64 busy=0x40e6580000000000 | stream=0x0d882a46d3675f67",
    ),
    (
        "torus4x4/dbtree/message/16KiB/flap",
        "bytes=16384 completion=0x40b3ca0000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=45/64 busy=0x40e6580000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b3ca0000000000 stalled=false window=0x40e86a0000000000 | stream=0x7c601accde75fb3b",
    ),
    (
        "torus4x4/dbtree/message/16KiB/degrade",
        "bytes=16384 completion=0x40c1dd0000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=45/64 busy=0x40e8b14000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c1dd0000000000 stalled=false window=0x40e86a0000000000 | stream=0x389ef443fc2bb8ec",
    ),
    (
        "torus4x4/dbtree/message/16KiB/dead-link",
        "bytes=16384 completion=0x40c2c98000000000 flits=29120 heads=448 msgs=480 flit_hops=43680 head_hops=672 links=44/64 busy=0x40e4500000000000 | delivered=424/480 lost=[136, 365, 366, 151, 374, 375, 389, 390, 166, 404, 405, 419, 420, 181, 434, 435, 448, 449, 196, 462, 463, 211, 225, 235] first_undelivered=Some(28) last_progress=0x40b20b0000000000 stalled=true window=0x40b3880000000000 | stream=0x9d983f6b3d9b1e01",
    ),
    (
        "torus4x4/dbtree/message/16KiB/node-crash",
        "bytes=16384 completion=0x40c2c98000000000 flits=30160 heads=464 msgs=480 flit_hops=44720 head_hops=688 links=44/64 busy=0x40e5d60000000000 | delivered=464/480 lost=[139, 140, 154, 155, 169, 170, 184, 185, 199, 200, 214, 215, 226, 227, 236, 237] first_undelivered=Some(29) last_progress=0x40b20b0000000000 stalled=true window=0x40b3880000000000 | stream=0xb65b82fa93189bd6",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/healthy",
        "bytes=16384 completion=0x40b2040000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 | stream=0xb809c9e8baa7a6d7",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/flap",
        "bytes=16384 completion=0x40b4720000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b4720000000000 stalled=false window=0x40e86a0000000000 | stream=0x76ef50deaa92c9fa",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/degrade",
        "bytes=16384 completion=0x40c2a60000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e9e60000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c2a60000000000 stalled=false window=0x40e86a0000000000 | stream=0x1f99637cd5846de7",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/dead-link",
        "bytes=16384 completion=0x40c2c60000000000 flits=30464 heads=1792 msgs=480 flit_hops=45696 head_hops=2688 links=44/64 busy=0x40e5400000000000 | delivered=424/480 lost=[365, 366, 136, 374, 375, 151, 389, 390, 404, 405, 166, 419, 420, 434, 435, 181, 448, 449, 462, 463, 196, 211, 225, 235] first_undelivered=Some(28) last_progress=0x40b2040000000000 stalled=true window=0x40b3880000000000 | stream=0x2c5fbc20e1c08885",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/node-crash",
        "bytes=16384 completion=0x40c2c60000000000 flits=31552 heads=1856 msgs=480 flit_hops=46784 head_hops=2752 links=44/64 busy=0x40e6d80000000000 | delivered=464/480 lost=[139, 140, 154, 155, 169, 170, 184, 185, 199, 200, 214, 215, 226, 227, 236, 237] first_undelivered=Some(29) last_progress=0x40b2040000000000 stalled=true window=0x40b3880000000000 | stream=0xefb9e8ee5b27c193",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/healthy",
        "bytes=16384 completion=0x40b2040000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 | stream=0xb809c9e8baa7a6d7",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/flap",
        "bytes=16384 completion=0x40b4720000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b4720000000000 stalled=false window=0x40e86a0000000000 | stream=0x76ef50deaa92c9fa",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/degrade",
        "bytes=16384 completion=0x40c2a60000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e9e60000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c2a60000000000 stalled=false window=0x40e86a0000000000 | stream=0x1f99637cd5846de7",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/dead-link",
        "bytes=16384 completion=0x40c2c60000000000 flits=30464 heads=1792 msgs=480 flit_hops=45696 head_hops=2688 links=44/64 busy=0x40e5400000000000 | delivered=424/480 lost=[365, 366, 136, 374, 375, 151, 389, 390, 404, 405, 166, 419, 420, 434, 435, 181, 448, 449, 462, 463, 196, 211, 225, 235] first_undelivered=Some(28) last_progress=0x40b2040000000000 stalled=true window=0x40b3880000000000 | stream=0x2c5fbc20e1c08885",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/node-crash",
        "bytes=16384 completion=0x40c2c60000000000 flits=31552 heads=1856 msgs=480 flit_hops=46784 head_hops=2752 links=44/64 busy=0x40e6d80000000000 | delivered=464/480 lost=[139, 140, 154, 155, 169, 170, 184, 185, 199, 200, 214, 215, 226, 227, 236, 237] first_undelivered=Some(29) last_progress=0x40b2040000000000 stalled=true window=0x40b3880000000000 | stream=0xefb9e8ee5b27c193",
    ),
    (
        "torus8x8/2dring/packet/16KiB/healthy",
        "bytes=16384 completion=0x40b4580000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 | stream=0xcf4134bbadd7e265",
    ),
    (
        "torus8x8/2dring/packet/16KiB/flap",
        "bytes=16384 completion=0x40ba280000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40ba280000000000 stalled=false window=0x40e86a0000000000 | stream=0x1c5abafc9f06b543",
    ),
    (
        "torus8x8/2dring/packet/16KiB/degrade",
        "bytes=16384 completion=0x40b4e00000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410df52000000000 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40b4e00000000000 stalled=false window=0x40e86a0000000000 | stream=0x3b5fc73a695531d8",
    ),
    (
        "torus8x8/2dring/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c3f00000000000 flits=212228 heads=12484 msgs=7168 flit_hops=212228 head_hops=12484 links=256/256 busy=0x4109da5000000000 | delivered=6229/7168 lost=[1870, 1877, 1884, 1891, 1898, 3591, 3598, 3605, 3612, 3619, 3626, 3633, 3640] first_undelivered=Some(10) last_progress=0x40b4580000000000 stalled=true window=0x40b3880000000000 | stream=0x78729cab7e97ec07",
    ),
    (
        "torus8x8/2dring/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c1650000000000 flits=150280 heads=8840 msgs=7168 flit_hops=150280 head_hops=8840 links=256/256 busy=0x4102584000000000 | delivered=4420/7168 lost=[975, 1084, 2090, 2201, 982, 1091, 2097, 2208, 989, 1098, 2104, 2223, 996, 1105, 2119, 2230, 1003, 1112, 2126, 2237, 3811, 3922, 6272, 6389, 3818, 3929, 6287, 6396, 3825, 3936, 6294, 6403, 3832, 3951, 6301, 6410, 3847, 3958, 6308, 6417, 3854, 3965, 6315, 6424, 3861, 3972, 6322, 6439, 3868, 3979, 6329, 6446] first_undelivered=Some(10) last_progress=0x40ae840000000000 stalled=true window=0x40b3880000000000 | stream=0x0003a688c98acd3d",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40b04c0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 | stream=0x0f31a1b86335fb95",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/flap",
        "bytes=16384 completion=0x40b5b60000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b5b60000000000 stalled=false window=0x40e86a0000000000 | stream=0x8e0cea37d0da6eda",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40c27c0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e9e60000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c27c0000000000 stalled=false window=0x40e86a0000000000 | stream=0xdb54846001403555",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c1ea0000000000 flits=30464 heads=1792 msgs=480 flit_hops=45696 head_hops=2688 links=39/48 busy=0x40e5400000000000 | delivered=424/480 lost=[124, 125, 133, 134, 148, 149, 163, 164, 178, 179, 372, 193, 194, 387, 208, 209, 402, 222, 223, 417, 432, 446, 460, 472] first_undelivered=Some(27) last_progress=0x40b04c0000000000 stalled=true window=0x40b3880000000000 | stream=0x51eb71f0526133a2",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c1ea0000000000 flits=31552 heads=1856 msgs=480 flit_hops=46784 head_hops=2752 links=40/48 busy=0x40e6d80000000000 | delivered=464/480 lost=[139, 140, 154, 155, 169, 170, 184, 185, 199, 200, 214, 215, 226, 227, 236, 237] first_undelivered=Some(29) last_progress=0x40b04c0000000000 stalled=true window=0x40b3880000000000 | stream=0x6cb45fd4aec3a0f8",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/healthy",
        "bytes=16384 completion=0x40b05c0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 | stream=0x3eb5444f6cfca9bd",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/flap",
        "bytes=16384 completion=0x40b4ae0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b4ae0000000000 stalled=false window=0x40e86a0000000000 | stream=0x3a816379953d5cc4",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/degrade",
        "bytes=16384 completion=0x40bd1c0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e9910000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40bd1c0000000000 stalled=false window=0x40e86a0000000000 | stream=0x25920886b4a19765",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/dead-link",
        "bytes=16384 completion=0x40c1f20000000000 flits=30464 heads=1792 msgs=480 flit_hops=45696 head_hops=2688 links=39/48 busy=0x40e5400000000000 | delivered=424/480 lost=[124, 125, 133, 134, 148, 149, 163, 164, 178, 179, 193, 194, 208, 209, 222, 223, 372, 387, 402, 417, 432, 446, 460, 472] first_undelivered=Some(27) last_progress=0x40b05c0000000000 stalled=true window=0x40b3880000000000 | stream=0x7c59cd009df4ef3b",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/node-crash",
        "bytes=16384 completion=0x40c1f20000000000 flits=31552 heads=1856 msgs=480 flit_hops=46784 head_hops=2752 links=40/48 busy=0x40e6d80000000000 | delivered=464/480 lost=[139, 140, 154, 155, 169, 170, 184, 185, 199, 200, 214, 215, 226, 227, 236, 237] first_undelivered=Some(29) last_progress=0x40b05c0000000000 stalled=true window=0x40b3880000000000 | stream=0x3a9d0a7c46fc5240",
    ),
    (
        "fattree16/multitree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40aec00000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40fcb00000000000 | stream=0x114630765880d7f2",
    ),
    (
        "fattree16/multitree/packet/16KiB/flap",
        "bytes=16384 completion=0x40b13c0000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40fcb00000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b13c0000000000 stalled=false window=0x40e86a0000000000 | stream=0xc37e927aee557e24",
    ),
    (
        "fattree16/multitree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40ba680000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40fd9e0000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40ba680000000000 stalled=false window=0x40e86a0000000000 | stream=0xb94711784cc82b9e",
    ),
    (
        "fattree16/multitree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c1520000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40fbca8000000000 | delivered=465/480 lost=[15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29] first_undelivered=Some(16) last_progress=0x40ae380000000000 stalled=true window=0x40b3880000000000 | stream=0x10a8263590f45747",
    ),
    (
        "fattree16/multitree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c1520000000000 flits=31620 heads=1860 msgs=480 flit_hops=113832 head_hops=6696 links=64/64 busy=0x40fbca8000000000 | delivered=465/480 lost=[285, 286, 287, 288, 289, 290, 291, 292, 293, 294, 295, 296, 297, 298, 299] first_undelivered=Some(16) last_progress=0x40ae380000000000 stalled=true window=0x40b3880000000000 | stream=0x1a92e90af68ba0a8",
    ),
    (
        "fattree16/multitree/message/16KiB/healthy",
        "bytes=16384 completion=0x40add00000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40fb6c0000000000 | stream=0xfce9b400c0d2a4a9",
    ),
    (
        "fattree16/multitree/message/16KiB/flap",
        "bytes=16384 completion=0x40b0f00000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40fb6c0000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b0f00000000000 stalled=false window=0x40e86a0000000000 | stream=0xb9b6c92769528d45",
    ),
    (
        "fattree16/multitree/message/16KiB/degrade",
        "bytes=16384 completion=0x40b9660000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40fc4f8000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b9660000000000 stalled=false window=0x40e86a0000000000 | stream=0x33e6d765376bee1a",
    ),
    (
        "fattree16/multitree/message/16KiB/dead-link",
        "bytes=16384 completion=0x40c1178000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40fa90a000000000 | delivered=465/480 lost=[15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29] first_undelivered=Some(16) last_progress=0x40ad4e0000000000 stalled=true window=0x40b3880000000000 | stream=0xc687c026eab00041",
    ),
    (
        "fattree16/multitree/message/16KiB/node-crash",
        "bytes=16384 completion=0x40c1178000000000 flits=30225 heads=465 msgs=480 flit_hops=108810 head_hops=1674 links=64/64 busy=0x40fa90a000000000 | delivered=465/480 lost=[285, 286, 287, 288, 289, 290, 291, 292, 293, 294, 295, 296, 297, 298, 299] first_undelivered=Some(16) last_progress=0x40ad4e0000000000 stalled=true window=0x40b3880000000000 | stream=0x84e31dcc52c940f2",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40a11c0000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40e0d58000000000 | stream=0xc0e5df4b4b442fc9",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/flap",
        "bytes=16384 completion=0x40a3540000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40e0d58000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a3540000000000 stalled=false window=0x40e86a0000000000 | stream=0x252a876ed05f009d",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40a2b00000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40e15d8000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a2b00000000000 stalled=false window=0x40e86a0000000000 | stream=0x63af419ff039c8f0",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40bc160000000000 flits=31144 heads=1832 msgs=480 flit_hops=31144 head_hops=1832 links=64/64 busy=0x40dfa48000000000 | delivered=452/480 lost=[44, 17, 380, 114, 477, 359] first_undelivered=Some(5) last_progress=0x40a11c0000000000 stalled=true window=0x40b3880000000000 | stream=0x42dd21033b85766c",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40bbac0000000000 flits=26860 heads=1580 msgs=480 flit_hops=26860 head_hops=1580 links=64/64 busy=0x40db978000000000 | delivered=395/480 lost=[314, 402, 161, 253, 285, 286, 287, 288, 145, 56, 147, 358, 29] first_undelivered=Some(5) last_progress=0x40a0480000000000 stalled=true window=0x40b3880000000000 | stream=0x45da59acf2519a5a",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/healthy",
        "bytes=16384 completion=0x40a0850000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40e0176000000000 | stream=0xef7114a8731ab76b",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/flap",
        "bytes=16384 completion=0x40a34e0000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40e0176000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a34e0000000000 stalled=false window=0x40e86a0000000000 | stream=0xc9c4648de816d044",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/degrade",
        "bytes=16384 completion=0x40a24a0000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40e0996000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a24a0000000000 stalled=false window=0x40e86a0000000000 | stream=0xe7b2de9ad0862fab",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/dead-link",
        "bytes=16384 completion=0x40bbca8000000000 flits=29770 heads=458 msgs=480 flit_hops=29770 head_hops=458 links=64/64 busy=0x40de3f2000000000 | delivered=452/480 lost=[44, 17, 114, 380, 477, 359] first_undelivered=Some(5) last_progress=0x40a0850000000000 stalled=true window=0x40b3880000000000 | stream=0x221d981a78e20df9",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/node-crash",
        "bytes=16384 completion=0x40bba90000000000 flits=25675 heads=395 msgs=480 flit_hops=25675 head_hops=395 links=64/64 busy=0x40da5fe000000000 | delivered=395/480 lost=[314, 402, 161, 253, 285, 286, 287, 288, 145, 56, 147, 358, 29] first_undelivered=Some(5) last_progress=0x40a0420000000000 stalled=true window=0x40b3880000000000 | stream=0x3cec830f5f7036b0",
    ),
    (
        "torus4x4/multitree/lockstep-interval/32KiB/healthy",
        "bytes=32768 completion=0x40caee0000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | stream=0x46580fb440d0cffd",
    ),
    (
        "torus4x4/multitree/lockstep-interval/32KiB/flap",
        "bytes=32768 completion=0x40caee0000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40caee0000000000 stalled=false window=0x40e86a0000000000 | stream=0x19b74dbd8795061d",
    ),
    (
        "torus4x4/multitree/lockstep-interval/32KiB/degrade",
        "bytes=32768 completion=0x40cb760000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40f0890000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40cb760000000000 stalled=false window=0x40e86a0000000000 | stream=0x1680ccc2b64a8999",
    ),
    (
        "torus4x4/multitree/lockstep-interval/32KiB/dead-link",
        "bytes=32768 completion=0x40d2590000000000 flits=60112 heads=3536 msgs=480 flit_hops=60112 head_hops=3536 links=64/64 busy=0x40ece30000000000 | delivered=435/480 lost=[399, 44, 17, 380, 114, 477, 359] first_undelivered=Some(4) last_progress=0x40caee0000000000 stalled=true window=0x40b3880000000000 | stream=0x0cdf3c6acb1d55b8",
    ),
    (
        "torus4x4/multitree/lockstep-interval/32KiB/node-crash",
        "bytes=32768 completion=0x40d2590000000000 flits=45016 heads=2648 msgs=480 flit_hops=45016 head_hops=2648 links=64/64 busy=0x40e5fb0000000000 | delivered=331/480 lost=[37, 128, 189, 370, 161, 253, 314, 402, 285, 286, 287, 288, 358, 29] first_undelivered=Some(4) last_progress=0x40caee0000000000 stalled=true window=0x40b3880000000000 | stream=0xc9f8124bd374b238",
    ),
    (
        "torus4x4/multitree/sw-launch/32KiB/healthy",
        "bytes=32768 completion=0x40bfb20000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | stream=0x69cc1ed7ccf924f9",
    ),
    (
        "torus4x4/multitree/sw-launch/32KiB/flap",
        "bytes=32768 completion=0x40c17f8000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c17f8000000000 stalled=false window=0x40e86a0000000000 | stream=0xc4728a1da2aa8158",
    ),
    (
        "torus4x4/multitree/sw-launch/32KiB/degrade",
        "bytes=32768 completion=0x40c04e0000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40f0780000000000 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c04e0000000000 stalled=false window=0x40e86a0000000000 | stream=0xafda36ccdc1f3ff5",
    ),
    (
        "torus4x4/multitree/sw-launch/32KiB/dead-link",
        "bytes=32768 completion=0x40c99d0000000000 flits=64328 heads=3784 msgs=480 flit_hops=64328 head_hops=3784 links=64/64 busy=0x40ef140000000000 | delivered=468/480 lost=[17, 380, 114, 477, 359] first_undelivered=Some(6) last_progress=0x40bfb20000000000 stalled=true window=0x40b3880000000000 | stream=0x5b72cf18ea2032bf",
    ),
    (
        "torus4x4/multitree/sw-launch/32KiB/node-crash",
        "bytes=32768 completion=0x40c8b60000000000 flits=49640 heads=2920 msgs=480 flit_hops=49640 head_hops=2920 links=64/64 busy=0x40e83d0000000000 | delivered=365/480 lost=[37, 335, 402, 128, 253, 161, 285, 286, 287, 288, 29] first_undelivered=Some(3) last_progress=0x40bde40000000000 stalled=true window=0x40b3880000000000 | stream=0x55f0007191ac32d1",
    ),
    (
        "torus8x8/2dring/lockstep-off/16KiB/healthy",
        "bytes=16384 completion=0x40b4580000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 | stream=0xcf4134bbadd7e265",
    ),
    (
        "torus8x8/2dring/lockstep-off/16KiB/flap",
        "bytes=16384 completion=0x40ba280000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40ba280000000000 stalled=false window=0x40e86a0000000000 | stream=0x1c5abafc9f06b543",
    ),
    (
        "torus8x8/2dring/lockstep-off/16KiB/degrade",
        "bytes=16384 completion=0x40b4e00000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410df52000000000 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40b4e00000000000 stalled=false window=0x40e86a0000000000 | stream=0x3b5fc73a695531d8",
    ),
    (
        "torus8x8/2dring/lockstep-off/16KiB/dead-link",
        "bytes=16384 completion=0x40c3f00000000000 flits=212228 heads=12484 msgs=7168 flit_hops=212228 head_hops=12484 links=256/256 busy=0x4109da5000000000 | delivered=6229/7168 lost=[1870, 1877, 1884, 1891, 1898, 3591, 3598, 3605, 3612, 3619, 3626, 3633, 3640] first_undelivered=Some(10) last_progress=0x40b4580000000000 stalled=true window=0x40b3880000000000 | stream=0x78729cab7e97ec07",
    ),
    (
        "torus8x8/2dring/lockstep-off/16KiB/node-crash",
        "bytes=16384 completion=0x40c1650000000000 flits=150280 heads=8840 msgs=7168 flit_hops=150280 head_hops=8840 links=256/256 busy=0x4102584000000000 | delivered=4420/7168 lost=[975, 1084, 2090, 2201, 982, 1091, 2097, 2208, 989, 1098, 2104, 2223, 996, 1105, 2119, 2230, 1003, 1112, 2126, 2237, 3811, 3922, 6272, 6389, 3818, 3929, 6287, 6396, 3825, 3936, 6294, 6403, 3832, 3951, 6301, 6410, 3847, 3958, 6308, 6417, 3854, 3965, 6315, 6424, 3861, 3972, 6322, 6439, 3868, 3979, 6329, 6446] first_undelivered=Some(10) last_progress=0x40ae840000000000 stalled=true window=0x40b3880000000000 | stream=0x0003a688c98acd3d",
    ),
    (
        "torus8x8/2dring/sw-launch/16KiB/healthy",
        "bytes=16384 completion=0x40db868000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 | stream=0x26ccb8fc41f0b865",
    ),
    (
        "torus8x8/2dring/sw-launch/16KiB/flap",
        "bytes=16384 completion=0x40dd890000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40dd890000000000 stalled=false window=0x40e86a0000000000 | stream=0x24d322d3c5b4ecb9",
    ),
    (
        "torus8x8/2dring/sw-launch/16KiB/degrade",
        "bytes=16384 completion=0x40db868000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410df52000000000 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40db868000000000 stalled=false window=0x40e86a0000000000 | stream=0x51b0de428f62bc2f",
    ),
    (
        "torus8x8/2dring/sw-launch/16KiB/dead-link",
        "bytes=16384 completion=0x40e062c000000000 flits=206346 heads=12138 msgs=7168 flit_hops=206346 head_hops=12138 links=256/256 busy=0x4109217000000000 | delivered=6055/7168 lost=[1863, 1870, 1877, 1884, 1891, 1898, 3591, 3598, 3605, 3612, 3619, 3626, 3633, 3640] first_undelivered=Some(9) last_progress=0x40dbe38000000000 stalled=true window=0x40b3880000000000 | stream=0x0a2e39faa2be9ac0",
    ),
    (
        "torus8x8/2dring/sw-launch/16KiB/node-crash",
        "bytes=16384 completion=0x40d7eb8000000000 flits=149668 heads=8804 msgs=7168 flit_hops=149668 head_hops=8804 links=256/256 busy=0x4102452000000000 | delivered=4402/7168 lost=[1077, 2083, 2194, 975, 1084, 2090, 2201, 982, 1091, 2097, 2208, 989, 1098, 2104, 2223, 996, 1105, 2119, 2230, 1003, 1112, 2126, 2237, 3811, 3922, 6272, 6389, 3818, 3929, 3825, 6287, 3936, 6396, 3832, 6294, 3951, 6403, 3847, 6301, 3958, 6410, 3854, 6308, 3965, 6417, 3861, 6315, 3972, 6424, 3868, 6322, 3979, 6439, 6329, 6446] first_undelivered=Some(9) last_progress=0x40d3098000000000 stalled=true window=0x40b3880000000000 | stream=0x56cbbe8647c2e5d4",
    ),
    (
        "ragged-torus8x8/ring/packet/64KiB/healthy",
        "bytes=65536 completion=0x40de92a746888e5b flits=548352 heads=32256 msgs=8064 flit_hops=548352 head_hops=32256 links=64/256 busy=0x4127a4b59712ee40 | stream=0x05745be0fd843955",
    ),
    (
        "ragged-torus8x8/ring/packet/64KiB/flap",
        "bytes=65536 completion=0x40e3d2859bebf6b0 flits=548352 heads=32256 msgs=8064 flit_hops=548352 head_hops=32256 links=64/256 busy=0x4127a4b59712ee40 | delivered=8064/8064 lost=[] first_undelivered=None last_progress=0x40e3d2859bebf6b0 stalled=false window=0x40e86a0000000000 | stream=0xdddec2865a7fe1ca",
    ),
    (
        "ragged-torus8x8/ring/packet/64KiB/degrade",
        "bytes=65536 completion=0x40e379737f679731 flits=548352 heads=32256 msgs=8064 flit_hops=548352 head_hops=32256 links=64/256 busy=0x41286338aa85a26e | delivered=8064/8064 lost=[] first_undelivered=None last_progress=0x40e379737f679731 stalled=false window=0x40e86a0000000000 | stream=0x31ec4ce0814eafb8",
    ),
    (
        "ragged-torus8x8/ring/packet/64KiB/dead-link",
        "bytes=65536 completion=0x40dd82f4ae38b226 flits=311168 heads=18304 msgs=8064 flit_hops=311168 head_hops=18304 links=64/256 busy=0x411a48109ed35056 | delivered=4512/8064 lost=[2520, 2583, 2646, 2709, 2772, 2835, 2898, 2961, 3024, 3087, 3150, 3213, 3276, 3339, 3402, 3465, 3528, 3591, 3654, 3717, 3780, 3843, 3906, 3969, 4032, 4159, 4222, 4285, 4348, 4411, 4474, 4537, 4600, 4663, 4726, 4789, 4852, 4915, 4978, 5041, 5104, 5167, 5230, 5293, 5356, 5419, 5482, 5545, 5608, 5671, 5734, 5797, 5860, 5923, 5986, 6049, 6112, 6175, 6238, 6301, 6364, 6427, 6490, 6553] first_undelivered=Some(40) last_progress=0x40d8a0f4ae38b226 stalled=true window=0x40b3880000000000 | stream=0x630737a8ea728fed",
    ),
    (
        "ragged-torus8x8/ring/packet/64KiB/node-crash",
        "bytes=65536 completion=0x40dd8850f7b0ad64 flits=302464 heads=17792 msgs=8064 flit_hops=302464 head_hops=17792 links=64/256 busy=0x411a7680a1148faa | delivered=4448/8064 lost=[2490, 2553, 2616, 2679, 2742, 2805, 2868, 2931, 2994, 3057, 3120, 3183, 3246, 3309, 3372, 3435, 3498, 3561, 3624, 3687, 3750, 3813, 3876, 3939, 4002, 4065, 4128, 4191, 4254, 4317, 4380, 4443, 4506, 4569, 4632, 4695, 4758, 4821, 4884, 4947, 5010, 5073, 5136, 5199, 5262, 5325, 5388, 5451, 5514, 5577, 5640, 5703, 5766, 5829, 5892, 5955, 6018, 6081, 6144, 6271, 6334, 6397, 6460, 6523] first_undelivered=Some(39) last_progress=0x40d8a650f7b0ad64 stalled=true window=0x40b3880000000000 | stream=0x019ed4caec2c958e",
    ),
    (
        "ragged-torus8x8/2dring/packet/64KiB/healthy",
        "bytes=65536 completion=0x40c342be25434271 flits=974848 heads=57344 msgs=7168 flit_hops=974848 head_hops=57344 links=256/256 busy=0x4134a2a966021c91 | stream=0x0a0871c02e5c7f4a",
    ),
    (
        "ragged-torus8x8/2dring/packet/64KiB/flap",
        "bytes=65536 completion=0x40c78945db972a87 flits=974848 heads=57344 msgs=7168 flit_hops=974848 head_hops=57344 links=256/256 busy=0x4134a2a966021c86 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40c78945db972a87 stalled=false window=0x40e86a0000000000 | stream=0xdffa13bbfcac97bc",
    ),
    (
        "ragged-torus8x8/2dring/packet/64KiB/degrade",
        "bytes=65536 completion=0x40c8878e38e38e3b flits=974848 heads=57344 msgs=7168 flit_hops=974848 head_hops=57344 links=256/256 busy=0x4134bf82956a686e | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40c8878e38e38e3b stalled=false window=0x40e86a0000000000 | stream=0x228c14cc0abe23d7",
    ),
    (
        "ragged-torus8x8/2dring/packet/64KiB/dead-link",
        "bytes=65536 completion=0x40cd012554032d24 flits=872304 heads=51312 msgs=7168 flit_hops=872304 head_hops=51312 links=256/256 busy=0x41327312c0c13547 | delivered=6402/7168 lost=[1877, 1884, 1891, 1898, 3591, 3598, 3605, 3612, 3619, 3626, 3633, 3640] first_undelivered=Some(11) last_progress=0x40c33d2554032d24 stalled=true window=0x40b3880000000000 | stream=0x3dd2f5ebcc385054",
    ),
    (
        "ragged-torus8x8/2dring/packet/64KiB/node-crash",
        "bytes=65536 completion=0x40c81d6c65ded9c0 flits=601120 heads=35360 msgs=7168 flit_hops=601120 head_hops=35360 links=256/256 busy=0x4129794426713660 | delivered=4420/7168 lost=[2201, 1084, 2090, 975, 2208, 1091, 2097, 982, 2223, 1098, 989, 2104, 2230, 1105, 2119, 996, 2237, 1003, 1112, 2126, 6272, 6389, 3811, 3922, 3929, 3818, 6396, 6287, 6403, 3936, 3825, 6294, 3832, 6410, 3951, 6301, 3958, 3847, 6417, 6308, 3965, 3854, 6315, 6424, 3972, 3861, 6439, 6322, 3979, 3868, 6446, 6329] first_undelivered=Some(10) last_progress=0x40bcb2d8cbbdb380 stalled=true window=0x40b3880000000000 | stream=0xbcf7e1f58d5f1a54",
    ),
    (
        "ragged-torus8x8/multitree/message/64KiB/healthy",
        "bytes=65536 completion=0x40b435e9c1e5e97f flits=524160 heads=8064 msgs=8064 flit_hops=524160 head_hops=8064 links=256/256 busy=0x4126307d95b06124 | stream=0x12cec31efd84968f",
    ),
    (
        "ragged-torus8x8/multitree/message/64KiB/flap",
        "bytes=65536 completion=0x40b945e0bff1be26 flits=524160 heads=8064 msgs=8064 flit_hops=524160 head_hops=8064 links=256/256 busy=0x4126307d95b06127 | delivered=8064/8064 lost=[] first_undelivered=None last_progress=0x40b945e0bff1be26 stalled=false window=0x40e86a0000000000 | stream=0x38b49b97a7a134c4",
    ),
    (
        "ragged-torus8x8/multitree/message/64KiB/degrade",
        "bytes=65536 completion=0x40c3f9718bb4fb39 flits=524160 heads=8064 msgs=8064 flit_hops=524160 head_hops=8064 links=256/256 busy=0x41266128386aec13 | delivered=8064/8064 lost=[] first_undelivered=None last_progress=0x40c3f9718bb4fb39 stalled=false window=0x40e86a0000000000 | stream=0xdd89ae7778f53adc",
    ),
    (
        "ragged-torus8x8/multitree/message/64KiB/dead-link",
        "bytes=65536 completion=0x40c402060dc459ba flits=503490 heads=7746 msgs=8064 flit_hops=503490 head_hops=7746 links=256/256 busy=0x4125421dc881a7f9 | delivered=7725/8064 lost=[300, 1186, 7239, 188, 65, 1079, 957, 7124, 8018, 847, 1974, 3112, 7907, 1864, 737, 4010, 7797, 5911, 2766, 5793, 4787] first_undelivered=Some(14) last_progress=0x40b47c0c1b88b375 stalled=true window=0x40b3880000000000 | stream=0x05e37495e88064f2",
    ),
    (
        "ragged-torus8x8/multitree/message/64KiB/node-crash",
        "bytes=65536 completion=0x40c3acba3f4a52fc flits=447720 heads=6888 msgs=8064 flit_hops=447720 head_hops=6888 links=256/256 busy=0x4122f4ee73211da0 | delivered=6888/8064 lost=[2065, 4458, 4961, 6098, 1187, 5344, 7236, 5091, 3080, 3333, 6232, 2197, 4093, 4346, 3209, 5226, 4221, 4222, 4223, 4224, 6390, 6396, 6016, 3495, 3501, 6022, 4638, 1363, 3995, 4001, 2502, 4895, 7406, 2999, 7160, 6532, 6538, 1105, 1499, 5905, 1502, 6921, 3885, 3891, 6924, 7553, 2000, 2005, 4776, 500, 3772, 881, 1885, 1887, 6802] first_undelivered=Some(14) last_progress=0x40b3d1747e94a5f8 stalled=true window=0x40b3880000000000 | stream=0x909876018e8354f1",
    ),
    (
        "torus16x16/multitree/packet/1024KiB/healthy",
        "bytes=1048576 completion=0x40e1cd0000000000 flits=35512320 heads=2088960 msgs=130560 flit_hops=35512320 head_hops=2088960 links=1024/1024 busy=0x4180ef0000000000 | stream=0x08761d537a11c05b",
    ),
    (
        "torus16x16/2dring/packet/1024KiB/healthy",
        "bytes=1048576 completion=0x40f22a0000000000 flits=66846720 heads=3932160 msgs=61440 flit_hops=66846720 head_hops=3932160 links=1024/1024 busy=0x418fe00000000000 | stream=0x8572d2bd3db82cf5",
    ),
    (
        "torus32x32/multitree-hier/packet/1024KiB/healthy",
        "bytes=1048576 completion=0x41419f4000000000 flits=142467072 heads=8380416 msgs=3968 flit_hops=1145167872 head_hops=67362816 links=2048/4096 busy=0x41d1107800000000 | stream=0xb393e3e0a94a7f34",
    ),
    (
        "ragged-torus16x16/ring/packet/1024KiB/healthy",
        "bytes=1048576 completion=0x4110cdcf8c167c24 flits=35512320 heads=2088960 msgs=130560 flit_hops=35512320 head_hops=2088960 links=256/1024 busy=0x41875f82f2496b31 | stream=0x1a8f44b29bce59b1",
    ),
];
