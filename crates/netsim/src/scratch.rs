//! Reusable simulation state for repeated engine runs.

/// Orders (time, event-id) min-first.
#[derive(Debug, PartialEq, Clone, Copy)]
pub(crate) struct Key(pub f64, pub usize);
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

/// The flow engine's ready queue, min-first by `(time, id)`.
///
/// Keys are packed into one `u128` — time bits in the high half, event
/// id in the low half — so a heap comparison is a single integer
/// compare instead of an `f64::total_cmp` plus a tiebreak. For the
/// non-negative finite times a simulation produces, the IEEE 754 bit
/// pattern of an `f64` orders identically to `total_cmp` (`-0.0` is
/// normalized to `+0.0` by adding `0.0` before packing), so the packed
/// order equals the unpacked order and — keys being unique — every pop
/// sequence is bit-identical to the straightforward implementation.
#[derive(Default)]
pub(crate) struct MinQueue {
    data: std::collections::BinaryHeap<std::cmp::Reverse<u128>>,
}

/// Packs a key the way [`MinQueue`] orders it: packed order equals
/// `(time, id)` order for the non-negative finite times a simulation
/// produces, and keys with distinct ids never compare equal.
#[inline]
fn pack_key(k: Key) -> u128 {
    // `+ 0.0` folds -0.0 into +0.0 (bit patterns differ, values don't)
    (u128::from((k.0 + 0.0).to_bits()) << 64) | k.1 as u128
}

impl MinQueue {
    pub(crate) fn clear(&mut self) {
        self.data.clear();
    }

    pub(crate) fn push(&mut self, k: Key) {
        debug_assert!(k.0 >= 0.0, "simulation times are non-negative");
        self.data.push(std::cmp::Reverse(pack_key(k)));
    }

    pub(crate) fn pop(&mut self) -> Option<Key> {
        self.data.pop().map(|std::cmp::Reverse(p)| {
            Key(f64::from_bits((p >> 64) as u64), (p & u128::from(u64::MAX)) as usize)
        })
    }

    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }
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
    /// Per event: latest dependency delivery seen so far (flow engine).
    pub(crate) ready_at: Vec<f64>,
    /// Per event: dependencies not yet delivered.
    pub(crate) remaining_deps: Vec<u32>,
    /// Per link: carried any traffic (flow engine accounting).
    pub(crate) used: Vec<bool>,
    /// Per lockstep step: injection gate times (flow engine).
    pub(crate) gates: Vec<f64>,
    /// Per event: wire framing at the current payload size, computed
    /// once per run and shared by the gate and execution loops.
    pub(crate) framings: Vec<crate::flowctrl::Framing>,
    /// Ready-event queue ordered by (time, id) (flow engine).
    pub(crate) heap: MinQueue,
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
            + self.ready_at.capacity()
            + self.remaining_deps.capacity()
            + self.used.capacity()
            + self.gates.capacity()
            + self.framings.capacity()
            + self.heap.capacity()
            + self.cycle.capacity_elements()
    }
}

impl std::fmt::Debug for SimScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimScratch")
            .field("links", &self.link_free.len())
            .field("nodes", &self.node_free.len())
            .field("events", &self.ready_at.len())
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
}
