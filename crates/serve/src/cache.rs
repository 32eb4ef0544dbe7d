//! The keyed prepared-schedule cache.
//!
//! Compile once, serve thousands of runs: a [`ScheduleCache`] maps a
//! [`ScheduleKey`] to a fully compiled [`CachedSchedule`] — degraded-view
//! topology, verified schedule, flattened [`PreparedData`] and (for the
//! MultiTree family) the construction forest that makes incremental
//! repair possible. Entries are immutable once ready and shared by
//! `Arc`, so any number of workers execute against one artifact while
//! the cache stays free to evict or replace it.
//!
//! Three properties the serving daemon leans on:
//!
//! * **In-flight dedup.** The first request for a key installs a
//!   `Pending` slot and compiles outside the lock; concurrent requests
//!   for the same key block on a condvar and share the result. Exactly
//!   one compile happens per unique key no matter how many workers race
//!   it — which also makes hit/miss counters deterministic for any
//!   worker count.
//! * **Byte-budgeted, cost-aware eviction.** Every entry is charged its
//!   actual heap bytes ([`CachedSchedule::bytes`]); inserting past the
//!   budget evicts ready entries (never in-flight ones) until the
//!   budget is met again. *Which* entry goes is decided by measured
//!   compile cost, not recency alone: the victim is the entry cheapest
//!   to recompile ([`CachedSchedule::compile_cost_ns`]), ties broken
//!   least-recently-used — so a 43-second 64k hierarchical compile is
//!   never sacrificed for a parade of 16-node toys. A single entry
//!   larger than the whole budget is allowed to be resident alone —
//!   refusing it would make the daemon useless for exactly the largest
//!   machines it exists to serve.
//! * **Repair over recompile.** A key whose [`FaultKey`] names permanent
//!   deaths is compiled *from the healthy base entry* of the same
//!   `(topology, algorithm)`: the MultiTree family goes through
//!   [`repair_multitree`]'s fallback chain (incremental → full rebuild →
//!   survivor subset, always re-verified); other algorithms are rebuilt
//!   cold on the degraded view, exactly like the `fault_sweep`
//!   baselines.
//!
//! Telemetry is observer-style ([`CacheObserver`]), but unlike the
//! engines' `SimObserver` — which is monomorphized into hot loops via
//! `const ENABLED` — this one is dynamically dispatched: cache events
//! happen per request, not per flit, so a virtual call is noise next to
//! a schedule execution and dyn keeps daemon plumbing monomorphic-free.

use crate::key::{FaultKey, ScheduleKey};
use crate::protocol::AlgorithmSpec;
use multitree::algorithms::{repair_multitree, Forest, MultiTree, RepairStrategy};
use multitree::verify::verify_schedule;
use multitree::{CommSchedule, PreparedData, PreparedSchedule};
use mt_topology::{LinkId, NodeId, Topology, TopologySpec};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Renders a panic payload as an error detail — the serving layers
/// convert panics to `Err` so one bad request costs one response, never
/// a worker thread or a wedged cache slot.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("internal panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("internal panic: {s}")
    } else {
        "internal panic".into()
    }
}

/// How a cached entry came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Compiled from scratch (on the healthy or degraded topology).
    Compiled,
    /// Derived from the healthy base entry through the repair chain.
    Repaired(RepairStrategy),
}

/// One fully compiled artifact: everything a worker needs to execute a
/// run with zero compile-path work.
#[derive(Debug, Clone)]
pub struct CachedSchedule {
    /// The (possibly degraded-view) topology the schedule runs on. Link
    /// ids are stable across degradation, so fault plans from requests
    /// apply unchanged.
    pub topology: Topology,
    /// The verified schedule.
    pub schedule: CommSchedule,
    /// Flattened per-event arrays (paths, bottlenecks, DAG adjacency).
    pub data: PreparedData,
    /// The MultiTree construction forest, kept for the MultiTree family
    /// so a later fault delta can regrow only affected trees.
    pub forest: Option<Forest>,
    /// The builder that made `forest` (needed again at repair time).
    pub multitree: Option<MultiTree>,
    /// How this entry was produced.
    pub provenance: Provenance,
    /// True if the schedule passed (re-)verification when produced.
    pub verified: bool,
    bytes: usize,
    compile_cost_ns: u64,
}

impl CachedSchedule {
    /// Assembles an entry, computing its prepared arrays and byte
    /// charge. The forest's bytes are not charged: it is a small
    /// fraction of the prepared arrays and only present for one family.
    fn assemble(
        topology: Topology,
        schedule: CommSchedule,
        forest: Option<Forest>,
        multitree: Option<MultiTree>,
        provenance: Provenance,
        verified: bool,
    ) -> Result<CachedSchedule, String> {
        let data = PreparedData::compute(&schedule, &topology).map_err(|e| e.to_string())?;
        let bytes = topology.heap_bytes() + schedule.heap_bytes() + data.heap_bytes();
        Ok(CachedSchedule {
            topology,
            schedule,
            data,
            forest,
            multitree,
            provenance,
            verified,
            bytes,
            compile_cost_ns: 0,
        })
    }

    /// A borrowed execution view over this entry — what workers hand to
    /// the engines. Free: no arrays are copied.
    pub fn prepared(&self) -> PreparedSchedule<'_> {
        PreparedSchedule::from_parts(&self.schedule, &self.topology, &self.data)
    }

    /// Heap bytes this entry is charged against the cache budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Wall nanos the compile (or repair) that produced this entry took,
    /// measured by the cache around the whole compile closure. This is
    /// what a re-miss would cost, so eviction treats it as the entry's
    /// value (see [`ScheduleCache`]'s cost-aware eviction).
    pub fn compile_cost_ns(&self) -> u64 {
        self.compile_cost_ns
    }
}

/// Cache telemetry hooks. All default to no-ops; implementations must be
/// thread-safe (workers fire them concurrently).
pub trait CacheObserver: Send + Sync {
    /// A request was answered from a ready entry.
    fn on_hit(&self, _key: &ScheduleKey) {}
    /// A request found no entry and will compile one.
    fn on_miss(&self, _key: &ScheduleKey) {}
    /// A request piggybacked on a compile already in flight.
    fn on_coalesced(&self, _key: &ScheduleKey) {}
    /// A compiled entry was inserted.
    fn on_insert(&self, _key: &ScheduleKey, _bytes: usize) {}
    /// A ready entry was evicted by the byte-budget LRU.
    fn on_evict(&self, _key: &ScheduleKey, _bytes: usize) {}
    /// A fault-delta compile resolved through the repair chain.
    fn on_repair(&self, _key: &ScheduleKey, _strategy: RepairStrategy) {}
    /// A compile failed; the error is propagated to all waiters.
    fn on_error(&self, _key: &ScheduleKey, _detail: &str) {}
    /// A worker executed one coalesced batch of `occupancy` same-key
    /// runs (an unbatched run is a batch of 1, so summing occupancies
    /// reconciles exactly with the number of runs served).
    fn on_batch(&self, _key: &ScheduleKey, _occupancy: usize) {}
}

/// Buckets in [`CountingCacheObserver`]'s batch-occupancy histogram:
/// bucket `i` counts batches of occupancy `i + 1`, the last bucket
/// absorbing anything larger.
pub const BATCH_HIST_BUCKETS: usize = 16;

/// The no-telemetry observer.
#[derive(Debug, Default)]
pub struct NoopCacheObserver;

impl CacheObserver for NoopCacheObserver {}

/// Atomic counters implementing [`CacheObserver`] — the daemon's default
/// telemetry, snapshot into `Stats` responses.
#[derive(Debug, Default)]
pub struct CountingCacheObserver {
    /// Ready-entry answers.
    pub hits: AtomicU64,
    /// Compiles started.
    pub misses: AtomicU64,
    /// Requests that waited on an in-flight compile.
    pub coalesced: AtomicU64,
    /// LRU evictions.
    pub evictions: AtomicU64,
    /// Repairs resolved incrementally.
    pub repairs_incremental: AtomicU64,
    /// Repairs that fell back to a full rebuild.
    pub repairs_full_rebuild: AtomicU64,
    /// Repairs that fell back to a survivor subset.
    pub repairs_survivor: AtomicU64,
    /// Failed compiles.
    pub errors: AtomicU64,
    /// Coalesced batches executed by the worker pool.
    pub batches: AtomicU64,
    /// Runs executed inside those batches (the sum of occupancies —
    /// every run lands in exactly one batch, so this equals the total
    /// runs served).
    pub batched_runs: AtomicU64,
    /// Batch occupancy histogram (see [`BATCH_HIST_BUCKETS`]).
    pub batch_occupancy: [AtomicU64; BATCH_HIST_BUCKETS],
}

impl CacheObserver for CountingCacheObserver {
    fn on_hit(&self, _key: &ScheduleKey) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn on_miss(&self, _key: &ScheduleKey) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    fn on_coalesced(&self, _key: &ScheduleKey) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }
    fn on_evict(&self, _key: &ScheduleKey, _bytes: usize) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
    fn on_repair(&self, _key: &ScheduleKey, strategy: RepairStrategy) {
        let ctr = match strategy {
            RepairStrategy::Incremental => &self.repairs_incremental,
            RepairStrategy::FullRebuild => &self.repairs_full_rebuild,
            RepairStrategy::SurvivorSubset => &self.repairs_survivor,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }
    fn on_error(&self, _key: &ScheduleKey, _detail: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }
    fn on_batch(&self, _key: &ScheduleKey, occupancy: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_runs.fetch_add(occupancy as u64, Ordering::Relaxed);
        let bucket = occupancy.clamp(1, BATCH_HIST_BUCKETS) - 1;
        self.batch_occupancy[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// How a request resolved against the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a ready entry.
    Hit,
    /// This request compiled the entry.
    Miss,
    /// Waited on a compile another request started.
    Coalesced,
}

enum Slot {
    Ready {
        entry: Arc<CachedSchedule>,
        last_used: u64,
    },
    Pending(Arc<Pending>),
}

struct Pending {
    done: Mutex<Option<Result<Arc<CachedSchedule>, String>>>,
    cv: Condvar,
}

struct Inner {
    map: HashMap<ScheduleKey, Slot>,
    total_bytes: usize,
    tick: u64,
}

/// The keyed, byte-budgeted, dedup-compiling schedule cache. See the
/// [module docs](self).
pub struct ScheduleCache {
    inner: Mutex<Inner>,
    max_bytes: usize,
    observer: Arc<dyn CacheObserver>,
}

impl ScheduleCache {
    /// Creates a cache holding at most `max_bytes` of compiled
    /// artifacts, reporting events to `observer`.
    pub fn new(max_bytes: usize, observer: Arc<dyn CacheObserver>) -> Self {
        ScheduleCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                total_bytes: 0,
                tick: 0,
            }),
            max_bytes,
            observer,
        }
    }

    /// Bytes currently charged for ready entries.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("cache lock").total_bytes
    }

    /// Number of ready entries resident.
    pub fn resident_entries(&self) -> usize {
        let inner = self.inner.lock().expect("cache lock");
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Resolves a request to a compiled artifact: hit, wait, or compile.
    ///
    /// This is the one entry point the daemon uses. The fault key routes
    /// the compile: healthy → build + verify; permanent deaths → repair
    /// from the healthy base entry (itself resolved through this cache,
    /// so the base compiles at most once too).
    ///
    /// # Errors
    ///
    /// Returns the compile/repair error string; a panic in the compile
    /// path is caught and reported the same way. Failures are NOT
    /// cached (a later identical request retries).
    pub fn resolve(
        &self,
        spec: &TopologySpec,
        algorithm: AlgorithmSpec,
        faults: FaultKey,
    ) -> Result<(Arc<CachedSchedule>, CacheOutcome), String> {
        let key = ScheduleKey::with_fault_key(spec, algorithm, faults.clone());
        self.get_or_compile(&key, || {
            if faults.is_healthy() {
                Self::compile_healthy(spec, algorithm)
            } else {
                self.compile_faulted(&key, spec, algorithm, &faults)
            }
        })
    }

    /// The hit/coalesce/compile state machine. `compile` runs outside
    /// the cache lock (and may recursively resolve other keys).
    pub fn get_or_compile<F>(
        &self,
        key: &ScheduleKey,
        compile: F,
    ) -> Result<(Arc<CachedSchedule>, CacheOutcome), String>
    where
        F: FnOnce() -> Result<CachedSchedule, String>,
    {
        let pending: Arc<Pending>;
        {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(key) {
                Some(Slot::Ready { entry, last_used }) => {
                    *last_used = tick;
                    let entry = Arc::clone(entry);
                    drop(inner);
                    self.observer.on_hit(key);
                    return Ok((entry, CacheOutcome::Hit));
                }
                Some(Slot::Pending(p)) => {
                    let p = Arc::clone(p);
                    drop(inner);
                    self.observer.on_coalesced(key);
                    let mut done = p.done.lock().expect("pending lock");
                    while done.is_none() {
                        done = p.cv.wait(done).expect("pending lock");
                    }
                    return done
                        .as_ref()
                        .expect("loop exits only when filled")
                        .clone()
                        .map(|e| (e, CacheOutcome::Coalesced));
                }
                None => {
                    pending = Arc::new(Pending {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    inner
                        .map
                        .insert(key.clone(), Slot::Pending(Arc::clone(&pending)));
                }
            }
        }
        self.observer.on_miss(key);

        // A panicking compile must behave like a failed one: if the
        // unwind escaped here it would leave the Pending slot in place
        // forever, and every later request for this key would block on
        // the condvar with nobody left to fill it.
        let started = std::time::Instant::now();
        let result = catch_unwind(AssertUnwindSafe(compile))
            .unwrap_or_else(|payload| Err(panic_detail(&*payload)))
            .map(|mut entry| {
                // measured around the whole closure: build, verify,
                // repair chain and any recursive base resolve — the
                // real price of losing this entry to eviction
                entry.compile_cost_ns = u64::try_from(started.elapsed().as_nanos())
                    .unwrap_or(u64::MAX);
                Arc::new(entry)
            });

        {
            let mut inner = self.inner.lock().expect("cache lock");
            match &result {
                Ok(entry) => {
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner.total_bytes += entry.bytes();
                    inner.map.insert(
                        key.clone(),
                        Slot::Ready {
                            entry: Arc::clone(entry),
                            last_used: tick,
                        },
                    );
                    self.observer.on_insert(key, entry.bytes());
                    self.evict_lru(&mut inner, key);
                }
                Err(detail) => {
                    // drop the pending slot so a later request retries
                    inner.map.remove(key);
                    self.observer.on_error(key, detail);
                }
            }
        }
        let mut done = pending.done.lock().expect("pending lock");
        *done = Some(result.clone());
        pending.cv.notify_all();
        drop(done);

        result.map(|e| (e, CacheOutcome::Miss))
    }

    /// Re-marks `key` as just used and counts a hit, without touching
    /// the entry itself. The worker pool's coalesced batches resolve a
    /// key once and account every extra batch member here, so hit/miss
    /// totals reconcile exactly with unbatched execution; if the entry
    /// was evicted in the meantime the hit still counts (the run is
    /// served from the `Arc` the batch already holds).
    pub fn touch(&self, key: &ScheduleKey) {
        {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(Slot::Ready { last_used, .. }) = inner.map.get_mut(key) {
                *last_used = tick;
            }
        }
        self.observer.on_hit(key);
    }

    /// Evicts ready entries (never pending ones, never `keep`) until the
    /// byte budget is met or nothing evictable remains — the budget stays
    /// strictly enforced; cost only chooses *which* entry goes.
    fn evict_lru(&self, inner: &mut Inner, keep: &ScheduleKey) {
        while inner.total_bytes > self.max_bytes {
            let victim = choose_victim(inner.map.iter().filter_map(|(k, s)| match s {
                Slot::Ready { entry, last_used } if k != keep => {
                    Some((entry.compile_cost_ns(), *last_used, k.clone()))
                }
                _ => None,
            }));
            let Some(victim_key) = victim else { break };
            if let Some(Slot::Ready { entry, .. }) = inner.map.remove(&victim_key) {
                inner.total_bytes -= entry.bytes();
                self.observer.on_evict(&victim_key, entry.bytes());
            }
        }
    }

    fn compile_healthy(
        spec: &TopologySpec,
        algorithm: AlgorithmSpec,
    ) -> Result<CachedSchedule, String> {
        let topo = spec.build().map_err(|e| e.to_string())?;
        if let Some(mt) = algorithm.multitree() {
            // construct the forest explicitly so it stays with the
            // entry, for fault deltas to regrow from; the empty repair
            // lowers and verifies it as it stands
            let forest = mt.construct_forest(&topo).map_err(|e| e.to_string())?;
            let r = repair_multitree(&mt, &topo, &forest, &[], &[]).map_err(|e| e.to_string())?;
            let verified = r.report.verified;
            CachedSchedule::assemble(
                r.topology,
                r.schedule,
                r.forest.or(Some(forest)),
                Some(mt),
                Provenance::Compiled,
                verified,
            )
        } else {
            let schedule = algorithm.build(&topo).map_err(|e| e.to_string())?;
            verify_schedule(&schedule).map_err(|e| e.to_string())?;
            CachedSchedule::assemble(topo, schedule, None, None, Provenance::Compiled, true)
        }
    }

    fn compile_faulted(
        &self,
        key: &ScheduleKey,
        spec: &TopologySpec,
        algorithm: AlgorithmSpec,
        faults: &FaultKey,
    ) -> Result<CachedSchedule, String> {
        let dead_links: Vec<LinkId> = faults.dead_links.iter().map(|&i| LinkId::new(i)).collect();
        let dead_nodes: Vec<NodeId> = faults.dead_nodes.iter().map(|&i| NodeId::new(i)).collect();
        if let Some(mt) = algorithm.multitree() {
            // regrow from the healthy base entry — resolved through the
            // cache itself, so the base compiles at most once and stays
            // warm for the next delta
            let (base, _) = self.resolve(spec, algorithm, FaultKey::default())?;
            let forest = base
                .forest
                .as_ref()
                .ok_or("healthy base entry is missing its forest")?;
            let r = repair_multitree(&mt, &base.topology, forest, &dead_links, &dead_nodes)
                .map_err(|e| e.to_string())?;
            self.observer.on_repair(key, r.report.strategy);
            let verified = r.report.verified;
            let strategy = r.report.strategy;
            CachedSchedule::assemble(
                r.topology,
                r.schedule,
                r.forest,
                Some(mt),
                Provenance::Repaired(strategy),
                verified,
            )
        } else {
            // baselines cannot be repaired: rebuild cold on the
            // degraded view (and refuse node deaths, which fixed-shape
            // schedules cannot express — same stance as fault_sweep)
            if !dead_nodes.is_empty() {
                return Err(format!(
                    "{} cannot serve node failures; use a MultiTree-family algorithm",
                    algorithm.name()
                ));
            }
            let topo = spec.build().map_err(|e| e.to_string())?;
            let degraded = topo.without_links(&dead_links);
            if !degraded.is_connected() {
                return Err("failed links disconnect the network".into());
            }
            let schedule = algorithm.build(&degraded).map_err(|e| e.to_string())?;
            let crosses_dead = schedule.events().any(|e| {
                e.path()
                    .unwrap_or_default()
                    .iter()
                    .any(|&l| degraded.is_link_disabled(l))
            });
            if crosses_dead {
                return Err(format!(
                    "{} still routes over a failed link",
                    algorithm.name()
                ));
            }
            verify_schedule(&schedule).map_err(|e| e.to_string())?;
            CachedSchedule::assemble(degraded, schedule, None, None, Provenance::Compiled, true)
        }
    }
}

/// The eviction policy as a pure function: among `(compile_cost_ns,
/// last_used, key)` candidates, the victim is the cheapest compile,
/// ties broken least-recently-used, then by key for determinism.
///
/// Bytes are what eviction must relieve, but compile nanos are what a
/// re-miss costs — a 43-second 64k hierarchical compile must not leave
/// to make room for three 16-node toys. The policy therefore never
/// picks an entry while a cheaper-to-recompile candidate exists; the
/// byte budget itself stays strictly enforced by the caller's loop.
fn choose_victim(
    candidates: impl IntoIterator<Item = (u64, u64, ScheduleKey)>,
) -> Option<ScheduleKey> {
    candidates.into_iter().min().map(|(_, _, key)| key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_cache(max_bytes: usize) -> (Arc<CountingCacheObserver>, ScheduleCache) {
        let obs = Arc::new(CountingCacheObserver::default());
        let cache = ScheduleCache::new(max_bytes, Arc::clone(&obs) as Arc<dyn CacheObserver>);
        (obs, cache)
    }

    #[test]
    fn second_request_hits() {
        let (obs, cache) = counting_cache(usize::MAX);
        let spec = TopologySpec::Torus { rows: 4, cols: 4 };
        let (a, o1) = cache
            .resolve(&spec, AlgorithmSpec::MultiTree, FaultKey::default())
            .unwrap();
        let (b, o2) = cache
            .resolve(&spec, AlgorithmSpec::MultiTree, FaultKey::default())
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b), "hits share the artifact");
        assert!(a.verified);
        assert!(a.forest.is_some(), "MultiTree entries keep their forest");
        assert_eq!(obs.hits.load(Ordering::Relaxed), 1);
        assert_eq!(obs.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.resident_entries(), 1);
        assert_eq!(cache.resident_bytes(), a.bytes());
    }

    #[test]
    fn fault_delta_repairs_not_recompiles() {
        let (obs, cache) = counting_cache(usize::MAX);
        let spec = TopologySpec::Torus { rows: 4, cols: 4 };
        // warm the healthy entry
        cache
            .resolve(&spec, AlgorithmSpec::MultiTree, FaultKey::default())
            .unwrap();
        let fk = FaultKey {
            dead_links: vec![0, 1],
            dead_nodes: vec![],
        };
        let (repaired, outcome) = cache
            .resolve(&spec, AlgorithmSpec::MultiTree, fk.clone())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert!(matches!(repaired.provenance, Provenance::Repaired(_)));
        assert!(repaired.verified, "repairs are re-verified");
        let total_repairs = obs.repairs_incremental.load(Ordering::Relaxed)
            + obs.repairs_full_rebuild.load(Ordering::Relaxed)
            + obs.repairs_survivor.load(Ordering::Relaxed);
        assert_eq!(total_repairs, 1);
        // the delta key is now cached too
        let (_, again) = cache.resolve(&spec, AlgorithmSpec::MultiTree, fk).unwrap();
        assert_eq!(again, CacheOutcome::Hit);
    }

    #[test]
    fn lru_evicts_by_bytes() {
        let spec_a = TopologySpec::Torus { rows: 4, cols: 4 };
        let spec_b = TopologySpec::Mesh { rows: 4, cols: 4 };
        // size the budget to hold roughly one entry
        let (_, probe) = counting_cache(usize::MAX);
        let (entry, _) = probe
            .resolve(&spec_a, AlgorithmSpec::Ring, FaultKey::default())
            .unwrap();
        let budget = entry.bytes() + entry.bytes() / 2;

        let (obs, cache) = counting_cache(budget);
        cache
            .resolve(&spec_a, AlgorithmSpec::Ring, FaultKey::default())
            .unwrap();
        cache
            .resolve(&spec_b, AlgorithmSpec::Ring, FaultKey::default())
            .unwrap();
        assert_eq!(obs.evictions.load(Ordering::Relaxed), 1, "A evicted for B");
        assert!(cache.resident_bytes() <= budget);
        // A misses again (it was evicted), B still hits
        let (_, oa) = cache
            .resolve(&spec_a, AlgorithmSpec::Ring, FaultKey::default())
            .unwrap();
        assert_eq!(oa, CacheOutcome::Miss);
    }

    #[test]
    fn eviction_is_cost_aware_and_budget_strict() {
        // one real compiled entry, cloned into synthetic slots so byte
        // charges are uniform and only compile cost differs
        let (_, probe) = counting_cache(usize::MAX);
        let (entry, _) = probe
            .resolve(
                &TopologySpec::Torus { rows: 4, cols: 4 },
                AlgorithmSpec::Ring,
                FaultKey::default(),
            )
            .unwrap();
        let proto = (*entry).clone();
        let budget = 2 * proto.bytes() + proto.bytes() / 2; // holds two

        let mk_key = |i: usize| {
            ScheduleKey::with_fault_key(
                &TopologySpec::Torus { rows: 4, cols: 4 + i },
                AlgorithmSpec::Ring,
                FaultKey::default(),
            )
        };
        let (obs, cache) = counting_cache(budget);
        let expensive = mk_key(0);
        // the expensive entry is inserted FIRST, so it is also the
        // least recently used — pure LRU would sacrifice it
        cache
            .get_or_compile(&expensive, || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                Ok(proto.clone())
            })
            .unwrap();
        cache.get_or_compile(&mk_key(1), || Ok(proto.clone())).unwrap();
        cache.get_or_compile(&mk_key(2), || Ok(proto.clone())).unwrap();

        assert_eq!(obs.evictions.load(Ordering::Relaxed), 1);
        assert!(cache.resident_bytes() <= budget, "byte budget is strict");
        let (survivor, outcome) = cache
            .get_or_compile(&expensive, || Err("must still be resident".into()))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit, "cheaper candidates paid the bytes");
        assert!(survivor.compile_cost_ns() >= 50_000_000);
        let err = cache
            .get_or_compile(&mk_key(1), || Err("evicted as expected".into()))
            .unwrap_err();
        assert!(err.contains("evicted as expected"));
    }

    mod victim_policy {
        use super::*;
        use proptest::prelude::*;

        fn keyed(candidates: &[(u64, u64)]) -> Vec<(u64, u64, ScheduleKey)> {
            candidates
                .iter()
                .enumerate()
                .map(|(i, &(cost, used))| {
                    let key = ScheduleKey::with_fault_key(
                        &TopologySpec::Hypercube { dim: 2 + i as u32 },
                        AlgorithmSpec::Ring,
                        FaultKey::default(),
                    );
                    (cost, used, key)
                })
                .collect()
        }

        // the victim never has a strictly cheaper co-candidate, and
        // among the cheapest it is the least recently used
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn victim_is_cheapest_then_least_recent(
                candidates in prop::collection::vec((0u64..5, 0u64..1000), 0..12),
            ) {
                let keyed = keyed(&candidates);
                match choose_victim(keyed.clone()) {
                    None => prop_assert!(candidates.is_empty()),
                    Some(victim) => {
                        let (cost, used, _) = keyed
                            .iter()
                            .find(|(_, _, k)| *k == victim)
                            .expect("victim comes from the candidate set")
                            .clone();
                        let min_cost = keyed.iter().map(|&(c, _, _)| c).min().unwrap();
                        prop_assert_eq!(cost, min_cost, "a cheaper candidate survived eviction");
                        let min_used = keyed
                            .iter()
                            .filter(|&&(c, _, _)| c == min_cost)
                            .map(|&(_, u, _)| u)
                            .min()
                            .unwrap();
                        prop_assert_eq!(used, min_used);
                    }
                }
            }
        }
    }

    #[test]
    fn panicking_compile_fails_like_an_error_and_unblocks_waiters() {
        let (obs, cache) = counting_cache(usize::MAX);
        let cache = Arc::new(cache);
        let spec = TopologySpec::Torus { rows: 4, cols: 4 };
        let key = ScheduleKey::with_fault_key(&spec, AlgorithmSpec::Ring, FaultKey::default());

        // the compiling thread installs its Pending slot, then blocks
        // until released so the waiter provably coalesces onto it
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let compiler = {
            let cache = Arc::clone(&cache);
            let key = key.clone();
            std::thread::spawn(move || {
                cache.get_or_compile(&key, move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    panic!("compile exploded")
                })
            })
        };
        entered_rx.recv().unwrap();
        let waiter = {
            let cache = Arc::clone(&cache);
            let key = key.clone();
            std::thread::spawn(move || {
                cache.get_or_compile(&key, || Err("waiter should have coalesced".into()))
            })
        };
        // the coalesced counter ticks before the waiter parks on the
        // condvar; only then let the compile panic
        while obs.coalesced.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();

        let compiled = compiler.join().expect("compiling thread must not die");
        let coalesced = waiter.join().expect("waiting thread must not hang");
        for r in [&compiled, &coalesced] {
            let e = r.as_ref().unwrap_err();
            assert!(e.contains("compile exploded"), "{e}");
        }
        assert_eq!(obs.errors.load(Ordering::Relaxed), 1);

        // the Pending slot is gone: a retry compiles cleanly
        let (entry, outcome) = cache
            .resolve(&spec, AlgorithmSpec::Ring, FaultKey::default())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert!(entry.verified);
    }

    #[test]
    fn compile_errors_propagate_and_do_not_stick() {
        let (obs, cache) = counting_cache(usize::MAX);
        // 2D-Ring needs a grid; a fat-tree is not one
        let spec = TopologySpec::FatTree {
            leaves: 4,
            spines: 4,
            nodes_per_leaf: 4,
        };
        let err = cache
            .resolve(&spec, AlgorithmSpec::Ring2D, FaultKey::default())
            .unwrap_err();
        assert!(!err.is_empty());
        assert_eq!(obs.errors.load(Ordering::Relaxed), 1);
        assert_eq!(cache.resident_entries(), 0, "failures are not cached");
        // a retry re-attempts the compile (and fails the same way)
        cache
            .resolve(&spec, AlgorithmSpec::Ring2D, FaultKey::default())
            .unwrap_err();
        assert_eq!(obs.misses.load(Ordering::Relaxed), 2);
    }
}
