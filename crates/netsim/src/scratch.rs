//! Reusable simulation state for repeated engine runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A ready-queue entry: a time and a tag, ordered min-first by
/// `(time, tag)`. The flow engine's tag leads with the event's original
/// id, so equal times pop in id order.
#[derive(Debug, PartialEq, Clone, Copy)]
pub(crate) struct Key(pub f64, pub u64);
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The flow engine's ready queue: a radix queue that pops in exactly
/// `(time, tag)` order and drains equal times as one sorted run.
///
/// Times are keyed by their IEEE 754 bit pattern, which for the
/// non-negative times a simulation produces orders exactly like the
/// values (`-0.0` is folded into `+0.0` first). Entries, packed as
/// `time << 64 | tag`, up to a boundary time `last` are *near*: most sit
/// in `run`, sorted so each pop takes the smallest from its end, and
/// those pushed after the run was formed sit in the `late` heap; a pop
/// takes the smaller of the two fronts. A later entry sits in the bucket
/// of the highest bit in which its time differs from `last`.
///
/// When nothing near is left, the lowest non-empty bucket holds the next
/// times. A small bucket is sorted into the run whole, and `last` moves
/// to its latest time; a large one gives up only its earliest time to
/// the run, `last` moves there, and the rest fall into lower buckets. So
/// a tie costs a bucket push, a move or two and a place in one merge
/// sort, and an entry moves down at most once per bucket.
pub(crate) struct MinQueue {
    /// Boundary time bits: near entries are at or before it, bucketed
    /// entries after it.
    last: u64,
    /// Near entries, sorted descending.
    run: Vec<u128>,
    /// Near entries pushed after `run` was formed, min-first.
    late: BinaryHeap<Reverse<u128>>,
    /// `buckets[b]`: the `(time bits, tag)` entries whose highest bit
    /// differing from `last` is bit `b`.
    buckets: [Vec<(u64, u64)>; 64],
    /// Bit `b` set when `buckets[b]` is non-empty.
    occupied: u64,
}

/// Buckets up to this size are sorted into the run whole. On the
/// tie-poor ragged-rate RING key, 256 ran as fast as a plain binary
/// heap, while 32 and 64 moved entries through more buckets and ran
/// 2–4% slower (see EXPERIMENTS.md); 16×16 MULTITREE, whose large
/// equal-time runs take the other path, did not change.
const SORT_WHOLE: usize = 256;

#[inline]
fn pack(bits: u64, tag: u64) -> u128 {
    (u128::from(bits) << 64) | u128::from(tag)
}

impl Default for MinQueue {
    fn default() -> Self {
        MinQueue {
            last: 0,
            run: Vec::new(),
            late: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }
}

impl MinQueue {
    pub(crate) fn clear(&mut self) {
        self.last = 0;
        self.run.clear();
        self.late.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = 0;
    }

    pub(crate) fn push(&mut self, k: Key) {
        debug_assert!(k.0 >= 0.0, "simulation times are non-negative");
        // `+ 0.0` folds -0.0 into +0.0 (bit patterns differ, values don't)
        let bits = (k.0 + 0.0).to_bits();
        if bits > self.last {
            self.bucket_push(bits, k.1);
        } else {
            self.late.push(Reverse(pack(bits, k.1)));
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Key> {
        if self.run.is_empty() && self.late.is_empty() {
            self.refill()?;
        }
        let e = match (self.run.last(), self.late.peek()) {
            (Some(&r), Some(&Reverse(l))) if l < r => self.late.pop()?.0,
            (Some(_), _) => self.run.pop()?,
            (None, _) => self.late.pop()?.0,
        };
        Some(Key(f64::from_bits((e >> 64) as u64), e as u64))
    }

    /// Moves the earliest bucketed entries into the run; `None` when the
    /// queue is empty.
    fn refill(&mut self) -> Option<()> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut entries = std::mem::take(&mut self.buckets[b]);
        if entries.len() <= SORT_WHOLE {
            self.last = entries.iter().map(|e| e.0).max().expect("occupied bucket");
            self.run.extend(entries.drain(..).map(|(bits, tag)| pack(bits, tag)));
        } else {
            self.last = entries.iter().map(|e| e.0).min().expect("occupied bucket");
            // every entry differs from the new `last` below bit `b`, so
            // none lands back in bucket `b`
            for (bits, tag) in entries.drain(..) {
                if bits == self.last {
                    self.run.push(pack(bits, tag));
                } else {
                    self.bucket_push(bits, tag);
                }
            }
        }
        self.buckets[b] = entries;
        // entries arrive as ascending stretches (one per run that queued
        // them), which a merge sort takes in near-linear time
        self.run.sort_by(|a, b| b.cmp(a));
        Some(())
    }

    #[inline]
    fn bucket_push(&mut self, bits: u64, tag: u64) {
        let b = 63 - (bits ^ self.last).leading_zeros() as usize;
        self.buckets[b].push((bits, tag));
        self.occupied |= 1 << b;
    }

    pub(crate) fn capacity(&self) -> usize {
        self.run.capacity()
            + self.late.capacity()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// The flow engine's per-run state of one event, indexed by execution
/// position: refilled by each run's fill pass, then counted down.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowState {
    /// Latest dependency delivery seen so far.
    pub(crate) ready: f64,
    /// Flits on the wire at this run's payload size.
    pub(crate) flits: u64,
    /// Dependencies not yet delivered.
    pub(crate) deps: u32,
}

/// Scratch buffers for the prepared-run entry points
/// ([`crate::flow::FlowEngine::run_prepared_with`],
/// [`crate::cycle::CycleEngine::run_prepared_with`]).
///
/// A sweep that executes one [`multitree::PreparedSchedule`] at many
/// payload sizes allocates these once and reuses them across runs; each
/// run only resizes and refills. The buffers carry no state between runs
/// — results are identical whether a scratch is fresh or reused.
#[derive(Default)]
pub struct SimScratch {
    /// Per link: time the link becomes free (flow engine).
    pub(crate) link_free: Vec<f64>,
    /// Per node: software launch serialization frontier (flow engine).
    pub(crate) node_free: Vec<f64>,
    /// Per event, in execution order: ready time, flits and outstanding
    /// dependencies (flow engine).
    pub(crate) flow_events: Vec<FlowState>,
    /// Per event: dependencies not yet delivered (cycle engine).
    pub(crate) remaining_deps: Vec<u32>,
    /// Per link: carried any traffic (flow engine accounting).
    pub(crate) used: Vec<bool>,
    /// Per lockstep step: injection gate times (flow engine).
    pub(crate) gates: Vec<f64>,
    /// Ready-event queue ordered by (time, id) (flow engine).
    pub(crate) queue: MinQueue,
    /// The cycle engine's buffers, calendars, worklists and NI tables.
    pub(crate) cycle: crate::cycle::CycleScratch,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap capacity (in elements) across every internal buffer of
    /// both engines. Exposed for the steady-state zero-allocation tests
    /// (capacity must not grow across identical runs); not a stable API.
    #[doc(hidden)]
    pub fn capacity_elements(&self) -> usize {
        self.link_free.capacity()
            + self.node_free.capacity()
            + self.flow_events.capacity()
            + self.remaining_deps.capacity()
            + self.used.capacity()
            + self.gates.capacity()
            + self.queue.capacity()
            + self.cycle.capacity_elements()
    }
}

impl std::fmt::Debug for SimScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimScratch")
            .field("links", &self.link_free.len())
            .field("nodes", &self.node_free.len())
            .field("events", &self.flow_events.len())
            .finish()
    }
}

/// Clears `buf` and refills it to `len` copies of `value`.
pub(crate) fn reset_to<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_queue_pops_sorted_order() {
        let mut q = MinQueue::default();
        // keys with duplicate times must still order by id
        let keys: Vec<Key> = (0..257)
            .map(|i| Key(((i * 97) % 31) as f64, i))
            .collect();
        for &k in &keys {
            q.push(k);
        }
        let mut expect = keys;
        expect.sort();
        let mut got = Vec::new();
        while let Some(k) = q.pop() {
            got.push(k);
        }
        assert_eq!(got.len(), expect.len());
        assert!(got.iter().zip(&expect).all(|(a, b)| a == b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn min_queue_interleaved_push_pop() {
        let mut q = MinQueue::default();
        q.push(Key(5.0, 1));
        q.push(Key(1.0, 2));
        assert_eq!(q.pop(), Some(Key(1.0, 2)));
        q.push(Key(3.0, 3));
        q.push(Key(0.5, 4));
        assert_eq!(q.pop(), Some(Key(0.5, 4)));
        assert_eq!(q.pop(), Some(Key(3.0, 3)));
        assert_eq!(q.pop(), Some(Key(5.0, 1)));
        assert_eq!(q.pop(), None);
        q.clear();
        assert_eq!(q.pop(), None);
    }

    /// The straightforward queue the radix queue must match pop for pop:
    /// a binary heap over `(time bits, tag)` packed into one `u128`.
    #[derive(Default)]
    struct Oracle(std::collections::BinaryHeap<std::cmp::Reverse<u128>>);

    impl Oracle {
        fn push(&mut self, k: Key) {
            let bits = (k.0 + 0.0).to_bits();
            self.0.push(std::cmp::Reverse((u128::from(bits) << 64) | u128::from(k.1)));
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            self.0.pop().map(|std::cmp::Reverse(p)| ((p >> 64) as u64, p as u64))
        }
    }

    fn bits(k: Option<Key>) -> Option<(u64, u64)> {
        k.map(|k| (k.0.to_bits(), k.1))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]
        #[test]
        fn min_queue_matches_a_binary_heap(
            ops in proptest::prop::collection::vec((0u32..16, 0u32..12, 0u64..48), 0..300)
        ) {
            let mut q = MinQueue::default();
            let mut oracle = Oracle::default();
            let mut last = 0.0f64;
            for (op, when, tag) in ops {
                match op {
                    // mostly pushes, at times chosen to collide
                    0..=9 => {
                        let t = match when {
                            // heavy ties on a few times, both zeros
                            0 => 0.0,
                            1 => -0.0,
                            2..=4 => f64::from(when),
                            // the time being drained
                            5..=7 => last,
                            // earlier than the last pop
                            8 => last * 0.5,
                            // distinct, nearby times
                            _ => last + f64::from(op) * 1e-9 + tag as f64,
                        };
                        q.push(Key(t, tag));
                        oracle.push(Key(t, tag));
                    }
                    10..=14 => {
                        let got = q.pop();
                        proptest::prop_assert_eq!(bits(got), oracle.pop());
                        if let Some(k) = got {
                            last = k.0;
                        }
                    }
                    _ => {
                        q.clear();
                        oracle = Oracle::default();
                    }
                }
            }
            loop {
                let want = oracle.pop();
                proptest::prop_assert_eq!(bits(q.pop()), want);
                if want.is_none() {
                    break;
                }
            }
            // popping an empty queue is harmless, and a drained queue
            // is reusable
            proptest::prop_assert!(q.pop().is_none());
            q.push(Key(1.0, 7));
            proptest::prop_assert_eq!(q.pop(), Some(Key(1.0, 7)));
        }
    }

    #[test]
    fn min_queue_matches_a_binary_heap_past_the_pour_size() {
        // thousands of queued entries, so refills take both bucket paths
        // (small buckets sorted whole, large ones split off as one-time
        // runs) and pushes land in the late heap
        for seed in 0..12u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut q = MinQueue::default();
            let mut oracle = Oracle::default();
            let mut last = 0.0f64;
            let mut tag = 0u64;
            // even seeds tie heavily, odd ones almost never
            let distinct = if seed % 2 == 0 { 37 } else { 1 << 40 };
            for round in 0..4_000 {
                for _ in 0..(next() % 4) {
                    let ahead = (next() % distinct) as f64 * if seed % 2 == 0 { 0.5 } else { 1e-9 };
                    let t = if next() % 16 == 0 { last } else { last + ahead };
                    tag += 1 + next() % 3;
                    q.push(Key(t, tag));
                    oracle.push(Key(t, tag));
                }
                if round % 3 != 0 {
                    let got = q.pop();
                    assert_eq!(bits(got), oracle.pop(), "seed {seed} round {round}");
                    if let Some(k) = got {
                        last = k.0;
                    }
                }
            }
            while let Some(want) = oracle.pop() {
                assert_eq!(bits(q.pop()), Some(want), "seed {seed} drain");
            }
            assert!(q.pop().is_none());
        }
    }
}
