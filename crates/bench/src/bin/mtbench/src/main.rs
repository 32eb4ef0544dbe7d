//! `mtbench`: the repository's benchmark. Four seeded workloads drive
//! the serving daemon through every layer — socket, parse, queue and
//! batch, key, cache, compile or repair, engine, encode — and every
//! reply is checked.
//!
//! ```text
//! mtbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--spans FILE]
//! mtbench [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--spans FILE]
//! mtbench --compare A.json... -- B.json...
//! ```
//!
//! The first form runs one workload in this process. The second runs
//! all four, each in a child process of its own so `peak_rss_mib` and
//! the heap are per workload. `--trace 1` makes the run a traced one
//! that reports per-layer metrics instead of end-to-end ones. README.md
//! next to this crate explains the workloads and metrics.

mod check;
mod load;
mod report;
mod stats;
mod trace;
mod workload;

use load::{Conn, Window};
use mt_bench::args::Args;
use mt_serve::{Daemon, RunRequest, StatsResponse};
use report::{Metric, RunFile, WorkloadResult};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{encode, Drive, Stream, Workload};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 54] = [
    ("serve.daemon.rtt_us_p50", "us"),
    ("serve.daemon.overhead_us_p50", "us"),
    ("serve.protocol.parse_us_p50", "us"),
    ("serve.protocol.encode_us_p50", "us"),
    ("serve.key.build_us_p50", "us"),
    ("serve.cache.hit_us_p50", "us"),
    ("serve.pool.batches", "count"),
    ("serve.pool.batch_occupancy_mean", "runs/batch"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.resident_mib", "MiB"),
    ("topology.build_ms_p50", "ms"),
    ("topology.busy_ms", "ms"),
    ("core.construct.ms_p50", "ms"),
    ("core.construct.busy_ms", "ms"),
    ("core.construct.MULTITREE.ms_p50", "ms"),
    ("core.construct.MULTITREE-BW.ms_p50", "ms"),
    ("core.construct.MULTITREE-HIER.ms_p50", "ms"),
    ("core.construct.2DRING.ms_p50", "ms"),
    ("core.construct.RING.ms_p50", "ms"),
    ("core.construct.HD.ms_p50", "ms"),
    ("core.construct.HDRM.ms_p50", "ms"),
    ("core.construct.DBTREE.ms_p50", "ms"),
    ("core.verify.ms_p50", "ms"),
    ("core.verify.busy_ms", "ms"),
    ("core.prepared.ms_p50", "ms"),
    ("core.prepared.busy_ms", "ms"),
    ("core.repair.ms_p50", "ms"),
    ("core.repair.busy_ms", "ms"),
    ("core.repair.incremental", "count"),
    ("core.repair.full_rebuild", "count"),
    ("core.repair.survivor_subset", "count"),
    ("netsim.flow.runs", "count"),
    ("netsim.flow.busy_ms", "ms"),
    ("netsim.flow.ns_per_event", "ns/event"),
    ("netsim.cycle.runs", "count"),
    ("netsim.cycle.busy_ms", "ms"),
    ("netsim.cycle.ns_per_cycle", "ns/cycle"),
    ("netsim.fault.runs", "count"),
    ("netsim.fault.ms_p50", "ms"),
    ("share.serve.protocol", "ratio"),
    ("share.serve.key", "ratio"),
    ("share.serve.cache", "ratio"),
    ("share.serve.pool", "ratio"),
    ("share.topology", "ratio"),
    ("share.core.construct", "ratio"),
    ("share.core.verify", "ratio"),
    ("share.core.prepared", "ratio"),
    ("share.core.repair", "ratio"),
    ("share.netsim.flow", "ratio"),
    ("share.netsim.cycle", "ratio"),
    ("share.netsim.fault", "ratio"),
    ("share.handle_of_rtt", "ratio"),
    ("trace.reconcile_error", "ratio"),
];

/// Set-up repeats at least `MIN_SETUPS` times and then until
/// `SETUP_BUDGET_S` seconds are spent, at most `MAX_SETUPS` times;
/// `setup_s` is the median. The cheapest set-ups take milliseconds, and
/// a median of three of those is mostly noise.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;
/// Slices a measured window is cut into (see [`slice_medians`]).
const SLICES: usize = 10;
/// Seconds of load in the memory probe (see [`memory_probe`]).
const PROBE_SECONDS: f64 = 10.0;
/// Largest acceptable p99 lateness of open-loop sends, in ms.
const MAX_GEN_LAG_MS: f64 = 5.0;
/// Fewest replies, as a share of requests offered, in a valid run.
const MIN_COMPLETED: f64 = 0.98;
/// Closed-loop streams are encoded up front, at least this many lines
/// and at least this many per second of window, and sent round-robin;
/// the warm workloads repeat keys anyway, and `cold-compile` needs far
/// fewer, so a wrap would show up as a cache hit and fail the run.
const RING_LINES: usize = 4096;
const RING_LINES_PER_S: f64 = 64.0;

struct Options {
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    spans: Option<String>,
    /// Internal: run as the child of [`memory_probe`].
    memory_probe: bool,
}

fn options(args: &Args) -> Result<Options, String> {
    let seconds: f64 = args.get_or("seconds", 20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match args.get_or("trace", 0u8) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Options {
        seed: args.get_or("seed", 1),
        seconds,
        trace,
        json: args.get("json").map(str::to_string),
        spans: args.get("spans").map(str::to_string),
        memory_probe: args.flag("memory-probe"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("--compare") {
        compare(&argv[1..])
    } else {
        let args = Args::from_tokens(argv);
        options(&args).and_then(|o| match args.get("workload") {
            Some(name) => one(name, &o),
            None => all(&o),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mtbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(argv: &[String]) -> Result<bool, String> {
    let usage = "usage: mtbench --compare A.json... -- B.json...";
    let split = argv.iter().position(|a| a == "--").ok_or(usage)?;
    let (a, b) = (&argv[..split], &argv[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err(usage.into());
    }
    report::compare(a, b)
}

/// Runs one workload in this process and prints its result.
fn one(name: &str, o: &Options) -> Result<bool, String> {
    let w = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    if o.memory_probe {
        println!("{}", probe(w, o.seed)?);
        return Ok(true);
    }
    let (result, contract): (_, &[(&str, &str)]) = if o.trace {
        (traced(w, o)?, &PER_LAYER)
    } else {
        (measured(w, o)?, &END_TO_END)
    };
    for line in result.lines() {
        println!("{line}");
    }
    if let Some(path) = &o.json {
        report::write_file(path, &run_file(o, vec![result.clone()]))?;
    }
    println!("{}", result.json_line(contract));
    Ok(result.correct)
}

/// Runs every workload in a child process of its own.
fn all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    if let Some(path) = &o.spans {
        // the children append their spans one after another
        std::fs::write(path, "").map_err(|e| format!("write {path}: {e}"))?;
    }
    let mut results = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(path) = &o.spans {
            cmd.args(["--spans", path]);
        }
        let out = cmd.output().map_err(|e| format!("run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
        ok &= out.status.success();
        results.push(WorkloadResult::from_lines(
            w.name(),
            &stdout,
            out.status.success(),
        ));
    }
    if let Some(path) = &o.json {
        report::write_file(path, &run_file(o, results))?;
    }
    Ok(ok)
}

fn run_file(o: &Options, results: Vec<WorkloadResult>) -> RunFile {
    RunFile {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        results,
    }
}

/// Daemon counters accumulated over one window.
struct Counters {
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    batches: u64,
    batched_runs: u64,
    resident_bytes: u64,
}

impl Counters {
    fn between(a: &StatsResponse, b: &StatsResponse) -> Counters {
        Counters {
            hits: b.hits - a.hits,
            misses: b.misses - a.misses,
            coalesced: b.coalesced - a.coalesced,
            evictions: b.evictions - a.evictions,
            batches: b.batches - a.batches,
            batched_runs: b.batched_runs - a.batched_runs,
            resident_bytes: b.resident_bytes,
        }
    }
}

/// Sends the workload's stream at `daemon` for `seconds`, checking every
/// reply and the workload's cache expectations; failed checks are added
/// to `problems`. With `once`, a closed loop also stops after one pass
/// over its encoded lines, so the number of replies recorded is fixed.
fn load_window(
    w: Workload,
    stream: &Stream,
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    once: bool,
    problems: &mut Vec<String>,
) -> Result<(Window, Counters), String> {
    let before = daemon.stats();
    let window = match w.drive() {
        Drive::Closed {
            connections,
            in_flight,
        } => {
            let ring = RING_LINES.max((RING_LINES_PER_S * seconds) as usize);
            let lines: Vec<Vec<u8>> = (0..ring as u64)
                .map(|i| encode(&stream.request(i)))
                .collect();
            let limit = if once { ring } else { usize::MAX };
            load::closed_loop(
                daemon.addr(),
                &lines,
                connections,
                in_flight,
                seconds,
                limit,
            )?
        }
        Drive::Open { rate } => {
            let due = workload::arrivals(seed, rate, seconds);
            let lines: Vec<Vec<u8>> = (0..due.len() as u64)
                .map(|i| encode(&stream.request(i)))
                .collect();
            let window = load::open_loop(daemon.addr(), &lines, &due, Instant::now())?;
            let lag = window.gen_lag_p99_ms();
            if lag > MAX_GEN_LAG_MS {
                problems.push(format!(
                    "generator ran {lag:.2} ms late at p99 (limit {MAX_GEN_LAG_MS} ms)"
                ));
            }
            window
        }
    };
    let counters = Counters::between(&before, &daemon.stats());
    if let Some(e) = &window.first_error {
        problems.push(format!(
            "{} of {} replies failed; first: {e}",
            window.failed, window.attempted
        ));
    }
    let completed = window.latencies_ms.len() as f64;
    if completed < MIN_COMPLETED * window.attempted as f64 {
        problems.push(format!(
            "only {completed} of {} requests completed",
            window.attempted
        ));
    }
    match w {
        Workload::EngineSweep | Workload::DispatchSmall
            if counters.misses + counters.evictions > 0 =>
        {
            problems.push(format!(
                "warm window saw {} misses and {} evictions",
                counters.misses, counters.evictions
            ))
        }
        Workload::ColdCompile if counters.hits > 0 => {
            problems.push(format!("cold window saw {} cache hits", counters.hits))
        }
        _ => {}
    }
    Ok((window, counters))
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Builds a result holding the `contract` metrics, in order, plus any
/// `extra` ones; every contract metric must be in `values`.
fn result(
    w: Workload,
    mut values: BTreeMap<String, f64>,
    contract: &[(&str, &str)],
    extra: Vec<Metric>,
    counts: (u64, u64),
    sim_digest: String,
    problems: &[String],
) -> WorkloadResult {
    let mut metrics: Vec<Metric> = contract
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: values
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed")),
            unit: unit.to_string(),
        })
        .collect();
    assert!(
        values.is_empty(),
        "metrics outside the contract: {values:?}"
    );
    metrics.extend(extra);
    for p in problems {
        eprintln!("{}: CHECK FAILED: {p}", w.name());
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!(
            "{}: CHECK FAILED: a metric is not a finite number",
            w.name()
        );
    }
    WorkloadResult {
        workload: w.name().to_string(),
        correct: problems.is_empty() && finite,
        attempted: counts.0,
        failed: counts.1,
        sim_digest,
        metrics,
    }
}

/// Closed-loop throughput and the median latency, each taken per slice
/// of the window and then as the median over the slices, so a burst of
/// contention from outside the benchmark moves one slice rather than
/// the result. Replies after the window (the drain) are left out.
fn slice_medians(window: &Window, seconds: f64) -> (f64, f64) {
    let width = seconds / SLICES as f64;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for (&t, &latency) in window.done_s.iter().zip(&window.latencies_ms) {
        if t < seconds {
            slices[((t / width) as usize).min(SLICES - 1)].push(latency);
        }
    }
    let rps: Vec<f64> = slices.iter().map(|s| s.len() as f64 / width).collect();
    let p50: Vec<f64> = slices.iter().map(|s| stats::median(s)).collect();
    (stats::median(&rps), stats::median(&p50))
}

/// Runs the `peak_rss_mib` measurement in a child process. With glibc's
/// per-thread malloc arenas, the peak of a multi-threaded daemon depends
/// on which thread happened to allocate what (`engine-sweep` runs doing
/// the same work read 270 to 490 MiB), so the child limits glibc to one arena,
/// where the peak follows the work. Throughput and latency keep the
/// default allocator: one arena costs `dispatch-small` a fifth of its
/// throughput.
fn memory_probe(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--memory-probe",
        ])
        .env("MALLOC_ARENA_MAX", "1")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("memory probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("memory probe failed: {text}"));
    }
    text.trim()
        .parse()
        .map_err(|e| format!("memory probe printed {text:?}: {e}"))
}

/// The child side of [`memory_probe`]: one set-up and a short window,
/// then the process's peak resident set. The window's checks are left
/// to the measured run, which sends the same stream; the probe's timing
/// under one arena proves nothing.
fn probe(w: Workload, seed: u64) -> Result<f64, String> {
    let stream = Stream::new(w, seed);
    let (daemon, _) = load::set_up(w, &stream.warm())?;
    // one pass only: the window's own sample vectors must not make the
    // peak depend on how many replies fit in the time
    load_window(
        w,
        &stream,
        &daemon,
        seed,
        PROBE_SECONDS,
        true,
        &mut Vec::new(),
    )?;
    peak_rss_mib()
}

/// An untraced run: set up several times, measure one window, replay
/// the verification set, and take the memory probe.
fn measured(w: Workload, o: &Options) -> Result<WorkloadResult, String> {
    let stream = Stream::new(w, o.seed);
    let warm = stream.warm();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut daemon = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // the previous daemon shuts down before the next one starts
        drop(daemon.take());
        let (d, s) = load::set_up(w, &warm)?;
        setup_s.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    eprintln!(
        "{}: set up {} times, median {:.3} s; measuring {} s",
        w.name(),
        setup_s.len(),
        stats::median(&setup_s),
        o.seconds
    );

    let mut problems = Vec::new();
    let (window, _) = load_window(w, &stream, &daemon, o.seed, o.seconds, false, &mut problems)?;
    let set: Vec<RunRequest> = (0..check::VERIFY_REQUESTS)
        .map(|i| stream.request(i))
        .collect();
    let mut conn = Conn::connect(daemon.addr())?;
    let sim_digest = check::gate(&mut conn, &set, load::config(w).network).unwrap_or_else(|e| {
        problems.push(e);
        String::new()
    });
    drop(conn);
    drop(daemon);
    let peak_rss_mib = memory_probe(w, o.seed)?;

    let (slice_rps, p50) = slice_medians(&window, o.seconds);
    let mut lat = window.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let tail = stats::percentile(&lat, w.tail());
    if tail.is_none() {
        problems.push(format!(
            "{} replies are too few for a p{} latency",
            lat.len(),
            w.tail() * 100.0
        ));
    }
    let throughput = match w.drive() {
        Drive::Closed { .. } => slice_rps,
        // the offered rate is fixed: goodput over the whole window
        Drive::Open { .. } => lat.len() as f64 / window.wall_s,
    };
    let mut values = BTreeMap::new();
    values.insert("throughput_rps".into(), throughput);
    values.insert("latency_p50_ms".into(), p50);
    values.insert("latency_tail_ms".into(), tail.unwrap_or(f64::NAN));
    values.insert("setup_s".into(), stats::median(&setup_s));
    values.insert("peak_rss_mib".into(), peak_rss_mib);
    let mut extra = vec![Metric {
        name: "latency_samples".into(),
        value: lat.len() as f64,
        unit: "count".into(),
    }];
    if !window.gen_lag_ms.is_empty() {
        extra.push(Metric {
            name: "gen_lag_p99_ms".into(),
            value: window.gen_lag_p99_ms(),
            unit: "ms".into(),
        });
    }
    let counts = (
        window.attempted + check::VERIFY_REQUESTS,
        window.failed + u64::from(sim_digest.is_empty()),
    );
    Ok(result(
        w,
        values,
        &END_TO_END,
        extra,
        counts,
        sim_digest,
        &problems,
    ))
}

/// A traced run: one set-up, half a window of load for the daemon's own
/// counters, then the three trace passes.
fn traced(w: Workload, o: &Options) -> Result<WorkloadResult, String> {
    let stream = Stream::new(w, o.seed);
    let (daemon, _) = load::set_up(w, &stream.warm())?;
    let mut problems = Vec::new();
    let (window, c) = load_window(
        w,
        &stream,
        &daemon,
        o.seed,
        o.seconds / 2.0,
        false,
        &mut problems,
    )?;
    drop(daemon);

    let started = Instant::now();
    let (mut values, spans) = trace::run(w, &stream, load::config(w).network)?;
    let replayed = (stream.warm().len() + w.trace_requests()) as u64;
    eprintln!(
        "{}: traced {replayed} requests three ways in {:.1} s; {}",
        w.name(),
        started.elapsed().as_secs_f64(),
        share_targets(w, &values)
    );
    if let Some(path) = &o.spans {
        trace::write_spans(path, &spans)?;
    }
    let resolved = c.hits + c.misses + c.coalesced;
    values.insert("serve.pool.batches".into(), c.batches as f64);
    values.insert(
        "serve.pool.batch_occupancy_mean".into(),
        c.batched_runs as f64 / c.batches.max(1) as f64,
    );
    values.insert(
        "serve.cache.hit_ratio".into(),
        c.hits as f64 / resolved.max(1) as f64,
    );
    values.insert("serve.cache.evictions".into(), c.evictions as f64);
    values.insert(
        "serve.cache.resident_mib".into(),
        c.resident_bytes as f64 / f64::from(1 << 20),
    );
    let counts = (window.attempted + 3 * replayed, window.failed);
    Ok(result(
        w,
        values,
        &PER_LAYER,
        Vec::new(),
        counts,
        String::new(),
        &problems,
    ))
}

/// The split each workload's trace is meant to show, and whether this
/// run showed it.
fn share_targets(w: Workload, m: &BTreeMap<String, f64>) -> String {
    let s = |names: &[&str]| names.iter().map(|n| m[&format!("share.{n}")]).sum::<f64>();
    let verdict = |met: bool| if met { "met" } else { "MISSED" };
    let reconcile = m["trace.reconcile_error"];
    let target = match w {
        Workload::EngineSweep => {
            let (flow, cycle) = (s(&["netsim.flow"]), s(&["netsim.cycle"]));
            let met = flow + cycle >= 0.8 && flow >= 0.25 && cycle >= 0.25;
            format!(
                "flow {flow:.2} + cycle {cycle:.2} >= 0.80, each >= 0.25: {}",
                verdict(met)
            )
        }
        Workload::DispatchSmall => {
            let h = m["share.handle_of_rtt"];
            format!("handle / round trip {h:.2} <= 0.35: {}", verdict(h <= 0.35))
        }
        Workload::ColdCompile => {
            let c = s(&[
                "topology",
                "core.construct",
                "core.repair",
                "core.verify",
                "core.prepared",
            ]);
            format!("compile layers {c:.2} >= 0.80: {}", verdict(c >= 0.8))
        }
        Workload::FaultyMixed => {
            let f = s(&["core.repair", "netsim.fault"]);
            format!(
                "repair + faulted runs {f:.2} >= 0.25: {}",
                verdict(f >= 0.25)
            )
        }
    };
    format!(
        "layer self times are {:.1}% off handle busy time (target 10%: {}); {target}",
        reconcile * 100.0,
        verdict(reconcile <= 0.1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkFile {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file: BenchmarkFile = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |d: &[Declared]| -> Vec<(String, String)> {
            d.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let printed = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&file.end_to_end), printed(&END_TO_END));
        assert_eq!(pairs(&file.per_layer), printed(&PER_LAYER));
    }
}
