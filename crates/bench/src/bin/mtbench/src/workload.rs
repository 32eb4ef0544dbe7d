//! The four workloads and the seeded request streams they send.
//!
//! Every stream is a pure function of `(workload, seed, index)`: request
//! `i` belongs to round `i / round_len`, each round holds a fixed
//! multiset of slots in a seeded order, and the slot's parameters
//! (payload, fault set, link, …) come from a counter-based generator.
//! Fixing the multiset per round keeps the amount of work per request
//! nearly the same for every seed, which is what lets runs on different
//! seeds agree within the benchmark's bounds; the seed still drives key
//! order, payloads, fault selection and arrival times. The daemon only
//! ever sees the encoded lines.

use mt_bench::faults::failure_sequence;
use mt_netsim::FaultPlan;
use mt_serve::{AlgorithmSpec, EngineSpec, Request, RunRequest};
use mt_topology::{LinkId, Topology, TopologySpec};

/// How the load generator drives the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// `connections` clients, each keeping `in_flight` requests
    /// outstanding and sending the next one only when a reply arrives.
    Closed {
        connections: usize,
        in_flight: usize,
    },
    /// Requests due at Poisson arrival times, `rate` per second, on one
    /// connection, whether or not earlier replies have arrived.
    Open { rate: f64 },
}

/// One of the benchmark's traffic mixes (see README.md for why each
/// exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineSweep,
    DispatchSmall,
    ColdCompile,
    FaultyMixed,
}

/// A warm key: one compiled schedule plus the engine and payload range
/// requests against it use.
#[derive(Debug, Clone)]
struct Key {
    topology: TopologySpec,
    algorithm: AlgorithmSpec,
    engine: EngineSpec,
    /// Inclusive payload range, in KiB.
    kib: (u64, u64),
}

fn key(
    topology: TopologySpec,
    algorithm: AlgorithmSpec,
    engine: EngineSpec,
    kib: (u64, u64),
) -> Key {
    Key {
        topology,
        algorithm,
        engine,
        kib,
    }
}

fn torus(n: usize) -> TopologySpec {
    TopologySpec::Torus { rows: n, cols: n }
}

/// What one slot of a round sends, naming a key by its index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// A healthy run on the key (on a never-seen wrapper of it, for
    /// `cold-compile`).
    Run(usize),
    /// A run on the key carrying a runtime flap or degrade plan.
    Runtime(usize),
    /// A structural delta on the key: 1–2 dead cables, so the cache
    /// repairs its healthy forest or replays an earlier repair.
    Delta(usize),
}

/// Zipf exponent of the `faulty-mixed` key popularity.
const ZIPF_S: f64 = 1.1;
/// Slots per `faulty-mixed` round: 70 healthy runs, 15 deltas and 15
/// runtime plans.
const FAULTY_ROUND: [usize; 3] = [70, 15, 15];
/// Fault sets drawn per repairable base in `faulty-mixed`.
const FAULT_SETS: u64 = 500;
/// The `faulty-mixed` keys fault deltas target: the flow-engine
/// MultiTree-family keys whose repair costs milliseconds (the 2D torus
/// repairs incrementally, the dragonfly and the fat-tree rebuild). The
/// 4x4 cycle key is left out: its repairs take a millisecond, and the
/// cycle runs on the repaired schedules would mostly add engine time.
const DELTA_KEYS: [usize; 3] = [0, 3, 4];
/// Cache budget of the workloads whose working set must evict.
const SMALL_CACHE: usize = 64 << 20;

/// Splits `n` slots over `keys` keys in proportion to Zipf weights,
/// largest remainder first, so a round holds the popularity exactly.
fn zipf_quotas(n: usize, keys: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - quotas.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        quotas[k] += 1;
    }
    quotas
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineSweep,
        Workload::DispatchSmall,
        Workload::ColdCompile,
        Workload::FaultyMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineSweep => "engine-sweep",
            Workload::DispatchSmall => "dispatch-small",
            Workload::ColdCompile => "cold-compile",
            Workload::FaultyMixed => "faulty-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn drive(self) -> Drive {
        match self {
            Workload::EngineSweep => Drive::Closed {
                connections: 2,
                in_flight: 4,
            },
            Workload::DispatchSmall => Drive::Closed {
                connections: 2,
                in_flight: 8,
            },
            Workload::ColdCompile => Drive::Closed {
                connections: 2,
                in_flight: 1,
            },
            Workload::FaultyMixed => Drive::Open { rate: 120.0 },
        }
    }

    /// The daemon's cache budget. `cold-compile` sits just above its
    /// warm set so every insert evicts; `faulty-mixed` fills it with
    /// repaired entries part-way through the window.
    pub fn cache_bytes(self) -> usize {
        match self {
            Workload::ColdCompile | Workload::FaultyMixed => SMALL_CACHE,
            _ => mt_serve::ServeConfig::default().cache_bytes,
        }
    }

    /// The percentile reported as `latency_tail_ms`: the highest one a
    /// run's sample count supports with at least ten samples beyond it.
    pub fn tail(self) -> f64 {
        match self {
            Workload::DispatchSmall | Workload::FaultyMixed => 0.99,
            Workload::EngineSweep | Workload::ColdCompile => 0.90,
        }
    }

    /// Stream requests the traced run replays after the warm set.
    pub fn trace_requests(self) -> usize {
        match self {
            // enough engine runs that the one-off warm-set compile stays
            // a small share of the traced busy time
            Workload::EngineSweep => 250,
            Workload::DispatchSmall => 2000,
            // every entry stays resident twice (in-process and daemon)
            Workload::ColdCompile => 35,
            Workload::FaultyMixed => 300,
        }
    }

    fn keys(self) -> Vec<Key> {
        use AlgorithmSpec as A;
        use EngineSpec::{Cycle, Flow};
        match self {
            Workload::EngineSweep => vec![
                key(torus(16), A::MultiTree, Flow, (256, 4096)),
                key(torus(16), A::Ring2D, Flow, (256, 4096)),
                // 32x32, not 64x64: the 64x64 compile peaks at 440 MiB
                // and 3 s, and set-up runs three times per measured run
                key(torus(32), A::Hierarchical, Flow, (256, 4096)),
                key(torus(4), A::MultiTree, Cycle, (64, 128)),
                key(torus(8), A::Ring2D, Cycle, (64, 128)),
            ],
            Workload::DispatchSmall => vec![
                key(torus(4), A::MultiTree, Flow, (4, 64)),
                key(torus(4), A::Ring, Flow, (4, 64)),
                key(
                    TopologySpec::Hypercube { dim: 4 },
                    A::HalvingDoubling,
                    Flow,
                    (4, 64),
                ),
                key(
                    TopologySpec::BiGraph {
                        upper: 4,
                        lower: 8,
                        nodes_per_lower: 4,
                    },
                    A::Hdrm,
                    Flow,
                    (4, 64),
                ),
                key(
                    TopologySpec::Mesh { rows: 4, cols: 4 },
                    A::DbTree,
                    Flow,
                    (4, 64),
                ),
            ],
            Workload::ColdCompile => vec![
                key(torus(32), A::Hierarchical, Flow, (64, 64)),
                key(torus(8), A::MultiTree, Flow, (64, 64)),
                key(
                    TopologySpec::FatTreeOversubscribed { k: 8, ratio: 4 },
                    A::MultiTreeBandwidthAware,
                    Flow,
                    (64, 64),
                ),
                key(
                    TopologySpec::Dragonfly { a: 4, p: 2 },
                    A::MultiTree,
                    Flow,
                    (64, 64),
                ),
                key(torus(8), A::Ring2D, Flow, (64, 64)),
                key(torus(16), A::Ring, Flow, (64, 64)),
                key(torus(16), A::MultiTree, Flow, (64, 64)),
            ],
            // in Zipf rank order, most popular first; the cycle keys sit
            // near the tail so healthy cycle runs do not crowd out the
            // repairs and faulted runs this workload exists for
            Workload::FaultyMixed => vec![
                key(torus(8), A::MultiTree, Flow, (256, 1024)),
                key(torus(8), A::Ring, Flow, (256, 1024)),
                key(torus(16), A::Hierarchical, Flow, (256, 1024)),
                key(
                    TopologySpec::Dragonfly { a: 4, p: 2 },
                    A::MultiTree,
                    Flow,
                    (256, 1024),
                ),
                key(
                    TopologySpec::FatTreeOversubscribed { k: 4, ratio: 2 },
                    A::MultiTreeBandwidthAware,
                    Flow,
                    (256, 1024),
                ),
                key(torus(4), A::MultiTree, Cycle, (32, 64)),
                key(
                    TopologySpec::Mesh { rows: 4, cols: 4 },
                    A::DbTree,
                    Cycle,
                    (32, 64),
                ),
                key(
                    TopologySpec::Torus3d { x: 4, y: 4, z: 4 },
                    A::MultiTree,
                    Flow,
                    (256, 1024),
                ),
            ],
        }
    }

    /// The slots of one round.
    fn round(self) -> Vec<Slot> {
        let runs = |weights: &[usize]| -> Vec<Slot> {
            weights
                .iter()
                .enumerate()
                .flat_map(|(k, &n)| std::iter::repeat_n(Slot::Run(k), n))
                .collect()
        };
        match self {
            // the cycle runs cost several flow runs each, so they get
            // fewer slots and the two engines share the time
            Workload::EngineSweep => runs(&[3, 3, 3, 2, 1]),
            // the 128-event hypercube HD schedule runs in 9.5 us, the
            // others in 23-28 us; five HD slots keep in-process `handle`
            // under 30% of the synchronous round trip, so transport and
            // dispatch dominate as this workload intends (at one slot
            // each the share read 0.29 to 0.37, at three up to 0.35)
            Workload::DispatchSmall => runs(&[1, 1, 5, 1, 1]),
            Workload::ColdCompile => runs(&[1; 7]),
            Workload::FaultyMixed => {
                let [healthy, deltas, runtime] = FAULTY_ROUND;
                let keys = self.keys().len();
                let mut slots = runs(&zipf_quotas(healthy, keys));
                slots.extend((0..deltas).map(|d| Slot::Delta(DELTA_KEYS[d % DELTA_KEYS.len()])));
                for (k, n) in zipf_quotas(runtime, keys).into_iter().enumerate() {
                    slots.extend(std::iter::repeat_n(Slot::Runtime(k), n));
                }
                slots
            }
        }
    }
}

/// splitmix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small counter-seeded generator: `Rng::at(seed, tag, i)` is the
/// `i`-th independent stream of purpose `tag`, so any request can be
/// regenerated without replaying the ones before it.
struct Rng(u64);

impl Rng {
    fn at(seed: u64, tag: u64, i: u64) -> Rng {
        Rng(mix64(seed ^ mix64(tag ^ mix64(i))))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

// Rng stream tags, one per independent purpose.
const TAG_ROUND: u64 = 1;
const TAG_SLOT: u64 = 2;
const TAG_POOL: u64 = 3;
const TAG_FAULT_SET: u64 = 4;
const TAG_ARRIVAL: u64 = 5;

/// The `c`-th never-repeating full-rate override over a pool of `p`
/// links: the single links first, then every unordered pair. Distinct
/// `c` give distinct sets, so the wrapped specs never share a key.
fn override_links(c: usize, p: usize) -> Vec<usize> {
    if c < p {
        return vec![c];
    }
    let mut r = c - p;
    for a in 0..p {
        let row = p - 1 - a;
        if r < row {
            return vec![a, a + 1 + r];
        }
        r -= row;
    }
    panic!("override space of {p} links exhausted at request {c}")
}

/// A workload's request stream for one seed.
pub struct Stream {
    workload: Workload,
    seed: u64,
    keys: Vec<Key>,
    round: Vec<Slot>,
    /// Per key: its built topology (`faulty-mixed` draws links and fault
    /// sets from it) and, for `cold-compile`, the seeded order of its
    /// full-rate links that the unique overrides are taken from.
    topos: Vec<Topology>,
    pools: Vec<Vec<usize>>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let keys = workload.keys();
        let topos: Vec<Topology> = keys
            .iter()
            .map(|k| k.topology.build().expect("benchmark topologies build"))
            .collect();
        let pools = topos
            .iter()
            .enumerate()
            .map(|(b, t)| {
                // only links already at full rate: re-rating a slow
                // uplink to 1/1 would change the machine, not just the key
                let mut pool: Vec<usize> = (0..t.num_links())
                    .filter(|&l| t.links()[l].rate_num == t.links()[l].rate_den)
                    .collect();
                Rng::at(seed, TAG_POOL, b as u64).shuffle(&mut pool);
                pool
            })
            .collect();
        Stream {
            workload,
            seed,
            keys,
            round: workload.round(),
            topos,
            pools,
        }
    }

    /// The requests that set-up sends before the measured window: one
    /// healthy run per key (per unwrapped base for `cold-compile`).
    pub fn warm(&self) -> Vec<RunRequest> {
        self.keys
            .iter()
            .map(|k| RunRequest {
                topology: k.topology.clone(),
                algorithm: k.algorithm,
                payload_bytes: k.kib.0 << 10,
                engine: k.engine,
                faults: None,
            })
            .collect()
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: u64) -> RunRequest {
        let len = self.round.len() as u64;
        let (round, pos) = (i / len, (i % len) as usize);
        let mut order = self.round.clone();
        Rng::at(self.seed, TAG_ROUND, round).shuffle(&mut order);
        let mut rng = Rng::at(self.seed, TAG_SLOT, i);
        match order[pos] {
            Slot::Run(k) if self.workload == Workload::ColdCompile => {
                let pool = &self.pools[k];
                let rates = override_links(round as usize, pool.len())
                    .into_iter()
                    .map(|j| (pool[j], 1, 1))
                    .collect();
                let mut req = self.run(k, &mut rng, None);
                req.topology = TopologySpec::WithLinkRates {
                    base: Box::new(req.topology),
                    rates,
                };
                req
            }
            Slot::Run(k) => self.run(k, &mut rng, None),
            Slot::Runtime(k) => {
                let link = LinkId::new(rng.range(0, self.topos[k].num_links() as u64 - 1) as usize);
                let at = rng.range(0, 20_000) as f64;
                let plan = if rng.next_u64().is_multiple_of(2) {
                    FaultPlan::new().link_flap(link, at, at + rng.range(1_000, 10_000) as f64)
                } else {
                    FaultPlan::new().degrade(link, at, rng.range(2, 4) as f64)
                };
                self.run(k, &mut rng, Some(plan))
            }
            Slot::Delta(k) => {
                let set = rng.range(0, FAULT_SETS - 1);
                let dead = failure_sequence(
                    &self.topos[k],
                    Rng::at(self.seed, TAG_FAULT_SET, (k as u64) << 32 | set).next_u64(),
                    1 + (set % 2) as usize,
                );
                let plan = dead
                    .into_iter()
                    .fold(FaultPlan::new(), |p, l| p.link_down(l, 0.0));
                self.run(k, &mut rng, Some(plan))
            }
        }
    }

    fn run(&self, k: usize, rng: &mut Rng, faults: Option<FaultPlan>) -> RunRequest {
        let key = &self.keys[k];
        RunRequest {
            topology: key.topology.clone(),
            algorithm: key.algorithm,
            payload_bytes: rng.range(key.kib.0, key.kib.1) << 10,
            engine: key.engine,
            faults,
        }
    }
}

/// One request as the NDJSON line the daemon reads, newline included.
pub fn encode(req: &RunRequest) -> Vec<u8> {
    let mut line = serde_json::to_string(&Request::Run(req.clone())).expect("requests encode");
    line.push('\n');
    line.into_bytes()
}

/// Open-loop due times, in seconds from the window start: a Poisson
/// process of `rate` conditioned on exactly `rate * seconds` arrivals,
/// i.e. that many sorted uniform points in the window.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as u64;
    let mut rng = Rng::at(seed, TAG_ARRIVAL, 0);
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_serve::ScheduleKey;
    use std::collections::HashSet;

    fn lines(w: Workload, seed: u64, n: u64) -> Vec<Vec<u8>> {
        let s = Stream::new(w, seed);
        (0..n).map(|i| encode(&s.request(i))).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [
            Workload::DispatchSmall,
            Workload::ColdCompile,
            Workload::FaultyMixed,
        ] {
            let a = lines(w, 7, 120);
            assert_eq!(
                a,
                lines(w, 7, 120),
                "{}: stream must be a function of the seed",
                w.name()
            );
            assert_ne!(
                a,
                lines(w, 8, 120),
                "{}: the seed must change the stream",
                w.name()
            );
        }
        assert_eq!(arrivals(3, 120.0, 2.0), arrivals(3, 120.0, 2.0));
        assert_ne!(arrivals(3, 120.0, 2.0), arrivals(4, 120.0, 2.0));
    }

    #[test]
    fn cold_compile_keys_never_repeat() {
        let s = Stream::new(Workload::ColdCompile, 11);
        let mut seen = HashSet::new();
        // past the single-link overrides of the smallest pool
        for i in 0..7 * 300 {
            let r = s.request(i);
            let key = ScheduleKey::new(&r.topology, r.algorithm, None);
            assert!(
                seen.insert(key.canonical().to_string()),
                "request {i} repeats a key"
            );
        }
        for b in s.warm() {
            let key = ScheduleKey::new(&b.topology, b.algorithm, None);
            assert!(
                !seen.contains(key.canonical()),
                "a cold key hits the warm set"
            );
        }
    }

    #[test]
    fn faulty_rounds_hold_zipf_quotas() {
        assert_eq!(zipf_quotas(70, 8), [28, 13, 8, 6, 5, 4, 3, 3]);
        let round = Workload::FaultyMixed.round();
        assert_eq!(round.len(), FAULTY_ROUND.iter().sum::<usize>());
        let deltas = round.iter().filter(|s| matches!(s, Slot::Delta(_))).count();
        assert_eq!(deltas, FAULTY_ROUND[1]);
    }
}
