//! Golden pins for the cycle engine: every report of the corpus in
//! `corpus/mod.rs` — healthy and under flap, degrade, dead-link and
//! node-crash plans — is pinned bit for bit. The engine's hot loop is
//! free to change its data structures, never its results; a failure here
//! means simulated output moved.
//!
//! The same corpus also pins the observer path: a run with an enabled
//! observer must return exactly the report the `NoopObserver` run
//! returns, whatever fast paths the disabled-observer loop takes.
//!
//! To re-record the table after a deliberate change of simulated
//! output, run
//! `cargo test -p mt-netsim --test golden_reports -- --ignored --nocapture`
//! and paste the printed rows over `GOLDEN`.

mod corpus;

use mt_netsim::{NoopObserver, SimObserver};
use std::cell::Cell;

/// Counts every hook the cycle engine calls, with hooks enabled.
struct Counting<'a> {
    hooks: &'a Cell<u64>,
}

impl Counting<'_> {
    fn hit(&self) {
        self.hooks.set(self.hooks.get() + 1);
    }
}

impl SimObserver for Counting<'_> {
    fn on_event_issued(&mut self, _: u64, _: u32, _: u32) {
        self.hit();
    }
    fn on_flit_injected(&mut self, _: u64, _: u32, _: u8, _: u32) {
        self.hit();
    }
    fn on_link_tx(&mut self, _: u64, _: u32, _: u8, _: u32) {
        self.hit();
    }
    fn on_flit_ejected(&mut self, _: u64, _: u32, _: u8, _: u32) {
        self.hit();
    }
    fn on_message_delivered(&mut self, _: u64, _: u32) {
        self.hit();
    }
    fn on_buffer_level(&mut self, _: u64, _: u32, _: u8, _: u32) {
        self.hit();
    }
    fn on_credit_stall(&mut self, _: u64, _: u32, _: u8) {
        self.hit();
    }
    fn on_step_advance(&mut self, _: u64, _: u32, _: u32, _: u64) {
        self.hit();
    }
}

#[test]
fn corpus_reports_are_pinned() {
    let runs = corpus::run_corpus(|| NoopObserver);
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
fn enabled_observer_returns_the_noop_report() {
    let noop = corpus::run_corpus(|| NoopObserver);
    let hooks = Cell::new(0);
    let observed = corpus::run_corpus(|| Counting { hooks: &hooks });
    assert_eq!(noop.len(), observed.len());
    for ((label, a), (_, b)) in noop.iter().zip(&observed) {
        assert_eq!(a, b, "observer path diverged: {label}");
    }
    assert!(hooks.get() > 0, "the enabled observer saw no hooks");
}

#[test]
#[ignore = "prints the golden table; run with --ignored --nocapture"]
fn print_golden_table() {
    for (label, fp) in corpus::run_corpus(|| NoopObserver) {
        println!("    (\n        {label:?},\n        {fp:?},\n    ),");
    }
}

/// `(run label, fingerprint)` for every corpus run, in corpus order.
const GOLDEN: &[(&str, &str)] = &[
    (
        "torus4x4/multitree/packet/32KiB/healthy",
        "bytes=32768 completion=0x40a3100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=2441 maxbuf=1",
    ),
    (
        "torus4x4/multitree/packet/32KiB/flap",
        "bytes=32768 completion=0x40a7960000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=3020 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a7960000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/packet/32KiB/degrade",
        "bytes=32768 completion=0x40adfa0000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=3838 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40adfa0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/packet/32KiB/dead-link",
        "bytes=32768 completion=0x40bd100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40eb1a6000000000 cycles=7441 maxbuf=1 | delivered=408/480 lost=[] first_undelivered=Some(5) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/packet/32KiB/node-crash",
        "bytes=32768 completion=0x40bc770000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40e5ea0000000000 cycles=7288 maxbuf=268 | delivered=323/480 lost=[] first_undelivered=Some(4) last_progress=0x40a1de0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/message/32KiB/healthy",
        "bytes=32768 completion=0x40a2920000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40ee3c0000000000 cycles=2378 maxbuf=1",
    ),
    (
        "torus4x4/multitree/message/32KiB/flap",
        "bytes=32768 completion=0x40a6f40000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40ee3c0000000000 cycles=2939 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a6f40000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/message/32KiB/degrade",
        "bytes=32768 completion=0x40ac8e0000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40ee3c0000000000 cycles=3656 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40ac8e0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/message/32KiB/dead-link",
        "bytes=32768 completion=0x40bcd10000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40e9b5a000000000 cycles=7378 maxbuf=1 | delivered=408/480 lost=[] first_undelivered=Some(5) last_progress=0x40a2920000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/message/32KiB/node-crash",
        "bytes=32768 completion=0x40bc380000000000 flits=61920 heads=480 msgs=480 flit_hops=61920 head_hops=480 links=64/64 busy=0x40e4c94000000000 cycles=7225 maxbuf=258 | delivered=323/480 lost=[] first_undelivered=Some(4) last_progress=0x40a1600000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/healthy",
        "bytes=32768 completion=0x40a2020000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=2306 maxbuf=1",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/flap",
        "bytes=32768 completion=0x40a6380000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=2845 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a6380000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/degrade",
        "bytes=32768 completion=0x40acec0000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=3703 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40acec0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/dead-link",
        "bytes=32768 completion=0x40bc890000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40eb264000000000 cycles=7306 maxbuf=1 | delivered=408/480 lost=[] first_undelivered=Some(5) last_progress=0x40a2020000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/lockstep-off/32KiB/node-crash",
        "bytes=32768 completion=0x40bad00000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40e15e8000000000 cycles=6865 maxbuf=156 | delivered=253/480 lost=[] first_undelivered=Some(4) last_progress=0x409d200000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/healthy",
        "bytes=32768 completion=0x40a3100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=2441 maxbuf=1",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/flap",
        "bytes=32768 completion=0x40a7960000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=3020 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a7960000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/degrade",
        "bytes=32768 completion=0x40adfa0000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=3838 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40adfa0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/dead-link",
        "bytes=32768 completion=0x40bd100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40eb1a6000000000 cycles=7441 maxbuf=1 | delivered=408/480 lost=[] first_undelivered=Some(5) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/vcs2/32KiB/node-crash",
        "bytes=32768 completion=0x40bc770000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40e5ea0000000000 cycles=7288 maxbuf=268 | delivered=323/480 lost=[] first_undelivered=Some(4) last_progress=0x40a1de0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/healthy",
        "bytes=32768 completion=0x40a3100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=2441 maxbuf=1",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/flap",
        "bytes=32768 completion=0x40a7960000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=3020 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a7960000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/degrade",
        "bytes=32768 completion=0x40adfa0000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40efe00000000000 cycles=3838 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40adfa0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/dead-link",
        "bytes=32768 completion=0x40bd100000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40eb1a6000000000 cycles=7441 maxbuf=1 | delivered=408/480 lost=[] first_undelivered=Some(5) last_progress=0x40a3100000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/multitree/vcs8/32KiB/node-crash",
        "bytes=32768 completion=0x40bc770000000000 flits=65280 heads=3840 msgs=480 flit_hops=65280 head_hops=3840 links=64/64 busy=0x40e5ea0000000000 cycles=7288 maxbuf=268 | delivered=323/480 lost=[] first_undelivered=Some(4) last_progress=0x40a1de0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40b7090000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=5898 maxbuf=153",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/flap",
        "bytes=16384 completion=0x40bcaf0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=7344 maxbuf=153 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40bcaf0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40c2530000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=9383 maxbuf=263 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c2530000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c0790000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/64 busy=0x40d6c04000000000 cycles=8435 maxbuf=52 | delivered=232/480 lost=[] first_undelivered=Some(13) last_progress=0x40aad40000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c0f88000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/64 busy=0x40d7f90000000000 cycles=8690 maxbuf=136 | delivered=240/480 lost=[] first_undelivered=Some(13) last_progress=0x40acd20000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/message/16KiB/healthy",
        "bytes=16384 completion=0x40b68b0000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=45/64 busy=0x40e6580000000000 cycles=5772 maxbuf=188",
    ),
    (
        "torus4x4/dbtree/message/16KiB/flap",
        "bytes=16384 completion=0x40bba10000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=45/64 busy=0x40e6580000000000 cycles=7074 maxbuf=188 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40bba10000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/message/16KiB/degrade",
        "bytes=16384 completion=0x40c19c8000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=45/64 busy=0x40e6580000000000 cycles=9018 maxbuf=282 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c19c8000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/message/16KiB/dead-link",
        "bytes=16384 completion=0x40c0768000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=36/64 busy=0x40d5b00000000000 cycles=8430 maxbuf=65 | delivered=232/480 lost=[] first_undelivered=Some(13) last_progress=0x40aaca0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/message/16KiB/node-crash",
        "bytes=16384 completion=0x40c0a28000000000 flits=31200 heads=480 msgs=480 flit_hops=45760 head_hops=704 links=36/64 busy=0x40d6ea4000000000 cycles=8518 maxbuf=130 | delivered=240/480 lost=[] first_undelivered=Some(13) last_progress=0x40ab7a0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/healthy",
        "bytes=16384 completion=0x40b6f10000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=5874 maxbuf=154",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/flap",
        "bytes=16384 completion=0x40bc890000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=7306 maxbuf=154 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40bc890000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/degrade",
        "bytes=16384 completion=0x40c2638000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=9416 maxbuf=263 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c2638000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/dead-link",
        "bytes=16384 completion=0x40c0470000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/64 busy=0x40d6bb0000000000 cycles=8335 maxbuf=85 | delivered=232/480 lost=[] first_undelivered=Some(13) last_progress=0x40aa0c0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/vcs2/16KiB/node-crash",
        "bytes=16384 completion=0x40c0b48000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/64 busy=0x40d7f90000000000 cycles=8554 maxbuf=136 | delivered=240/480 lost=[] first_undelivered=Some(13) last_progress=0x40abc20000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/healthy",
        "bytes=16384 completion=0x40b7090000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=5898 maxbuf=153",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/flap",
        "bytes=16384 completion=0x40bcaf0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=7344 maxbuf=153 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40bcaf0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/degrade",
        "bytes=16384 completion=0x40c2530000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=45/64 busy=0x40e7600000000000 cycles=9383 maxbuf=263 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c2530000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/dead-link",
        "bytes=16384 completion=0x40c0790000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/64 busy=0x40d6c04000000000 cycles=8435 maxbuf=52 | delivered=232/480 lost=[] first_undelivered=Some(13) last_progress=0x40aad40000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus4x4/dbtree/vcs8/16KiB/node-crash",
        "bytes=16384 completion=0x40c0f88000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/64 busy=0x40d7f90000000000 cycles=8690 maxbuf=136 | delivered=240/480 lost=[] first_undelivered=Some(13) last_progress=0x40acd20000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus8x8/2dring/packet/16KiB/healthy",
        "bytes=16384 completion=0x40b4570000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 cycles=5208 maxbuf=1",
    ),
    (
        "torus8x8/2dring/packet/16KiB/flap",
        "bytes=16384 completion=0x40ba270000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 cycles=6696 maxbuf=1 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40ba270000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus8x8/2dring/packet/16KiB/degrade",
        "bytes=16384 completion=0x40b4db0000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x410dc00000000000 cycles=5340 maxbuf=1 | delivered=7168/7168 lost=[] first_undelivered=None last_progress=0x40b4db0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "torus8x8/2dring/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c0aa8000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x40ffe66000000000 cycles=8534 maxbuf=1 | delivered=3843/7168 lost=[] first_undelivered=Some(10) last_progress=0x40ab9a0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "torus8x8/2dring/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c04d8000000000 flits=243712 heads=14336 msgs=7168 flit_hops=243712 head_hops=14336 links=256/256 busy=0x40fcbcc000000000 cycles=8348 maxbuf=68 | delivered=3452/7168 lost=[] first_undelivered=Some(9) last_progress=0x40aa260000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40b6e70000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 cycles=5864 maxbuf=153",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/flap",
        "bytes=16384 completion=0x40bb780000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 cycles=7033 maxbuf=153 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40bb780000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40c25b0000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 cycles=9399 maxbuf=263 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c25b0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c0688000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/48 busy=0x40d7600000000000 cycles=8402 maxbuf=34 | delivered=239/480 lost=[] first_undelivered=Some(14) last_progress=0x40aa920000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "mesh4x4/dbtree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c0a38000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/48 busy=0x40d7f90000000000 cycles=8520 maxbuf=136 | delivered=240/480 lost=[] first_undelivered=Some(13) last_progress=0x40ab7e0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/healthy",
        "bytes=16384 completion=0x40b6610000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 cycles=5730 maxbuf=153",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/flap",
        "bytes=16384 completion=0x40bbe60000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 cycles=7143 maxbuf=153 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40bbe60000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/degrade",
        "bytes=16384 completion=0x40c1f50000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=40/48 busy=0x40e7600000000000 cycles=9195 maxbuf=263 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40c1f50000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/dead-link",
        "bytes=16384 completion=0x40c0688000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/48 busy=0x40d700c000000000 cycles=8402 maxbuf=52 | delivered=236/480 lost=[] first_undelivered=Some(14) last_progress=0x40aa920000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "mesh4x4/dbtree/lockstep-off/16KiB/node-crash",
        "bytes=16384 completion=0x40c0b48000000000 flits=32640 heads=1920 msgs=480 flit_hops=47872 head_hops=2816 links=36/48 busy=0x40d7f90000000000 cycles=8554 maxbuf=136 | delivered=240/480 lost=[] first_undelivered=Some(13) last_progress=0x40abc20000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "fattree16/multitree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40a9860000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40fcb00000000000 cycles=3268 maxbuf=200",
    ),
    (
        "fattree16/multitree/packet/16KiB/flap",
        "bytes=16384 completion=0x40b37e0000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40fcb00000000000 cycles=4991 maxbuf=306 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b37e0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "fattree16/multitree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40b7b70000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40fcb00000000000 cycles=6072 maxbuf=289 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b7b70000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "fattree16/multitree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40c0258000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40f71b4000000000 cycles=8268 maxbuf=306 | delivered=353/480 lost=[] first_undelivered=Some(10) last_progress=0x40a9860000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "fattree16/multitree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40c0258000000000 flits=32640 heads=1920 msgs=480 flit_hops=117504 head_hops=6912 links=64/64 busy=0x40f6516000000000 cycles=8268 maxbuf=310 | delivered=328/480 lost=[] first_undelivered=Some(6) last_progress=0x40a9860000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "fattree16/multitree/message/16KiB/healthy",
        "bytes=16384 completion=0x40a8ba0000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40fb6c0000000000 cycles=3166 maxbuf=196",
    ),
    (
        "fattree16/multitree/message/16KiB/flap",
        "bytes=16384 completion=0x40b1a00000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40fb6c0000000000 cycles=4513 maxbuf=318 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b1a00000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "fattree16/multitree/message/16KiB/degrade",
        "bytes=16384 completion=0x40b6bd0000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40fb6c0000000000 cycles=5822 maxbuf=318 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40b6bd0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "fattree16/multitree/message/16KiB/dead-link",
        "bytes=16384 completion=0x40bfe50000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40f6317000000000 cycles=8166 maxbuf=318 | delivered=353/480 lost=[] first_undelivered=Some(10) last_progress=0x40a8ba0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "fattree16/multitree/message/16KiB/node-crash",
        "bytes=16384 completion=0x40bfe50000000000 flits=31200 heads=480 msgs=480 flit_hops=112320 head_hops=1728 links=64/64 busy=0x40f57e9000000000 cycles=8166 maxbuf=318 | delivered=330/480 lost=[] first_undelivered=Some(6) last_progress=0x40a8ba0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/healthy",
        "bytes=16384 completion=0x40a10e0000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40dfe00000000000 cycles=2184 maxbuf=1",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/flap",
        "bytes=16384 completion=0x40a1ca0000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40dfe00000000000 cycles=2278 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a1ca0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/degrade",
        "bytes=16384 completion=0x40a2860000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40dfe00000000000 cycles=2372 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a2860000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/dead-link",
        "bytes=16384 completion=0x40bc0f0000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40de480000000000 cycles=7184 maxbuf=1 | delivered=456/480 lost=[] first_undelivered=Some(6) last_progress=0x40a10e0000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "paced-torus4x4/multitree/packet/16KiB/node-crash",
        "bytes=16384 completion=0x40baac0000000000 flits=32640 heads=1920 msgs=480 flit_hops=32640 head_hops=1920 links=64/64 busy=0x40d5ea0000000000 cycles=6829 maxbuf=73 | delivered=324/480 lost=[] first_undelivered=Some(4) last_progress=0x409c900000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/healthy",
        "bytes=16384 completion=0x40a0900000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40de780000000000 cycles=2121 maxbuf=1",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/flap",
        "bytes=16384 completion=0x40a13c0000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40de780000000000 cycles=2207 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a13c0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/degrade",
        "bytes=16384 completion=0x40a1ea0000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40de780000000000 cycles=2294 maxbuf=1 | delivered=480/480 lost=[] first_undelivered=None last_progress=0x40a1ea0000000000 stalled=false window=0x40e86a0000000000",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/dead-link",
        "bytes=16384 completion=0x40bbd00000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40dcf20000000000 cycles=7121 maxbuf=1 | delivered=456/480 lost=[] first_undelivered=Some(6) last_progress=0x40a0900000000000 stalled=true window=0x40b3880000000000",
    ),
    (
        "paced-torus4x4/multitree/message/16KiB/node-crash",
        "bytes=16384 completion=0x40ba760000000000 flits=31200 heads=480 msgs=480 flit_hops=31200 head_hops=480 links=64/64 busy=0x40d4f28000000000 cycles=6775 maxbuf=80 | delivered=324/480 lost=[] first_undelivered=Some(4) last_progress=0x409bb80000000000 stalled=true window=0x40b3880000000000",
    ),
];
