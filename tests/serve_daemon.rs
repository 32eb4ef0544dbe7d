//! End-to-end tests of the collective-serving daemon over real TCP:
//! NDJSON framing, per-connection ordering under concurrent clients,
//! cache behavior observable through `Stats`, mid-stream fault deltas
//! served by repair, and malformed-input robustness.

use mt_netsim::FaultPlan;
use mt_serve::{
    AlgorithmSpec, Client, Daemon, EngineSpec, Request, Response, RunRequest, ServeConfig,
};
use mt_topology::{LinkId, TopologySpec};

fn daemon(workers: usize) -> Daemon {
    Daemon::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    )
    .expect("bind daemon")
}

fn run(topology: TopologySpec, algorithm: AlgorithmSpec, payload: u64) -> Request {
    Request::Run(RunRequest {
        topology,
        algorithm,
        payload_bytes: payload,
        engine: EngineSpec::Flow,
        faults: None,
    })
}

fn unwrap_run(resp: Response) -> mt_serve::RunResponse {
    match resp {
        Response::Run(r) => r,
        other => panic!("expected run response, got {other:?}"),
    }
}

#[test]
fn mixed_batch_is_answered_in_order_with_cache_reuse() {
    let mut d = daemon(2);
    let mut client = Client::connect(d.addr()).unwrap();

    let torus = TopologySpec::Torus { rows: 4, cols: 4 };
    let requests = vec![
        run(torus.clone(), AlgorithmSpec::MultiTree, 1 << 20),
        Request::Ping,
        run(torus.clone(), AlgorithmSpec::Ring, 1 << 16),
        // same key as the first request, different payload: must hit
        run(torus.clone(), AlgorithmSpec::MultiTree, 1 << 16),
        Request::Stats,
        run(
            TopologySpec::Hypercube { dim: 4 },
            AlgorithmSpec::HalvingDoubling,
            1 << 18,
        ),
    ];
    let responses = client.batch(&requests).unwrap();
    assert_eq!(responses.len(), requests.len());

    // requests 0 and 3 share a key; with 2 workers either may win the
    // compile while the other hits or coalesces (a coalesced request
    // reports the winning compile's provenance), so per-request labels
    // are not deterministic — the pair-level invariant (exactly one
    // compile, one reuse) is asserted via the final stats below
    let first = unwrap_run(responses[0].clone());
    assert!(first.provenance == "compiled" || first.provenance == "cached");
    assert!(first.verified);
    assert!(matches!(responses[1], Response::Pong));
    assert_eq!(unwrap_run(responses[2].clone()).provenance, "compiled");
    let hit = unwrap_run(responses[3].clone());
    assert!(
        hit.provenance == "cached" || hit.provenance == "compiled",
        "payload change must not re-key (got {})",
        hit.provenance
    );
    assert_ne!(hit.completion_ns, first.completion_ns, "payload differs");
    assert_eq!(hit.key, first.key, "same schedule key");
    let Response::Stats(stats) = &responses[4] else {
        panic!("expected stats");
    };
    // mid-batch snapshot: workers run concurrently, so only a compile
    // that must have finished before this job was dequeued is certain
    assert!(stats.misses >= 1);
    assert_eq!(stats.errors, 0);
    assert!(unwrap_run(responses[5].clone()).verified);

    drop(client);
    d.shutdown();
    let final_stats = d.stats();
    assert_eq!(final_stats.misses, 3, "three unique keys compiled once each");
    assert_eq!(
        final_stats.hits + final_stats.coalesced,
        1,
        "the payload-changed request reused the first compile"
    );
}

#[test]
fn responses_are_deterministic_across_worker_counts_and_connections() {
    let torus = TopologySpec::Torus { rows: 4, cols: 4 };
    let requests: Vec<Request> = (0..12)
        .map(|i| match i % 3 {
            0 => run(torus.clone(), AlgorithmSpec::MultiTree, 1 << (14 + i % 4)),
            1 => run(torus.clone(), AlgorithmSpec::Ring, 1 << 16),
            _ => run(torus.clone(), AlgorithmSpec::DbTree, 1 << 18),
        })
        .collect();

    let mut baseline: Option<Vec<(String, f64, u64)>> = None;
    for workers in [1, 4] {
        let d = daemon(workers);
        // two concurrent clients sending the same pipelined stream
        let addr = d.addr();
        let reqs = requests.clone();
        let other = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.batch(&reqs).unwrap()
        });
        let mut c = Client::connect(d.addr()).unwrap();
        let mine = c.batch(&requests).unwrap();
        let theirs = other.join().unwrap();

        for resp in [&mine, &theirs] {
            let fields: Vec<(String, f64, u64)> = resp
                .iter()
                .map(|r| {
                    let r = unwrap_run(r.clone());
                    assert!(r.verified);
                    (r.key, r.completion_ns, r.flits_sent)
                })
                .collect();
            match &baseline {
                None => baseline = Some(fields),
                Some(b) => assert_eq!(
                    b, &fields,
                    "simulated results must not depend on workers or interleaving"
                ),
            }
        }
    }
}

#[test]
fn mid_stream_fault_deltas_route_through_repair() {
    let mut d = daemon(2);
    let mut client = Client::connect(d.addr()).unwrap();
    let torus = TopologySpec::Torus { rows: 4, cols: 4 };

    // warm the healthy key
    let healthy = unwrap_run(
        client
            .request(&run(torus.clone(), AlgorithmSpec::MultiTree, 1 << 20))
            .unwrap(),
    );
    assert_eq!(healthy.provenance, "compiled");

    // three successive deltas mid-stream, each a different dead set
    for (i, dead) in [vec![0], vec![0, 2], vec![4]].into_iter().enumerate() {
        let mut plan = FaultPlan::new();
        for &l in &dead {
            plan = plan.link_down(LinkId::new(l), 0.0);
        }
        let resp = unwrap_run(
            client
                .request(&Request::Run(RunRequest {
                    topology: torus.clone(),
                    algorithm: AlgorithmSpec::MultiTree,
                    payload_bytes: 1 << 20,
                    engine: EngineSpec::Flow,
                    faults: Some(plan),
                }))
                .unwrap(),
        );
        assert!(
            resp.provenance.starts_with("repaired:"),
            "delta {i}: wanted repair, got {}",
            resp.provenance
        );
        assert!(resp.verified, "delta {i}: repair must be re-verified");
        assert_eq!(resp.delivered, resp.messages, "delta {i}: full delivery");
        assert!(!resp.stalled);
        // interleave a healthy request: still served from cache
        let again = unwrap_run(
            client
                .request(&run(torus.clone(), AlgorithmSpec::MultiTree, 1 << 20))
                .unwrap(),
        );
        assert_eq!(again.provenance, "cached");
        assert_eq!(again.completion_ns, healthy.completion_ns);
    }

    let stats = d.stats();
    let repairs =
        stats.repairs_incremental + stats.repairs_full_rebuild + stats.repairs_survivor;
    assert_eq!(repairs, 3, "each delta repaired exactly once");
    drop(client);
    d.shutdown();
}

#[test]
fn oversized_request_line_is_capped_in_the_read_path() {
    use std::io::{BufRead, Write};
    let d = daemon(1);
    let mut raw = std::net::TcpStream::connect(d.addr()).unwrap();
    // stream 16 MiB + 2 bytes with no newline: the daemon must stop
    // buffering one byte past its line cap and answer with an error,
    // not grow the line (or parse it) without bound
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..16 {
        raw.write_all(&chunk).unwrap();
    }
    raw.write_all(b"xx").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: Response = serde_json::from_str(line.trim()).unwrap();
    let Response::Error(e) = resp else {
        panic!("expected error, got {resp:?}");
    };
    assert!(e.detail.contains("exceeds"), "{}", e.detail);
    // an oversized line cannot be resynced; the daemon hangs up
    line.clear();
    let n = reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "connection closed after an oversized line");
}

#[test]
fn deeply_nested_line_errors_and_connection_survives() {
    use std::io::{BufRead, Write};
    let d = daemon(1);
    let mut raw = std::net::TcpStream::connect(d.addr()).unwrap();
    // 100,000 open brackets: far under the line cap, far past any sane
    // nesting depth; the parser must refuse it instead of recursing once
    // per level
    let mut line = vec![b'['; 100_000];
    line.push(b'\n');
    raw.write_all(&line).unwrap();
    writeln!(raw, "\"Ping\"").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str::<Response>(line.trim()).unwrap()
    };
    let Response::Error(e) = read() else {
        panic!("expected an error for the nested line");
    };
    assert!(e.detail.contains("nesting"), "{}", e.detail);
    assert!(matches!(read(), Response::Pong));
}

#[test]
fn malformed_lines_error_in_order_and_connection_survives() {
    let d = daemon(1);
    let mut client = Client::connect(d.addr()).unwrap();

    // hand-write a pipeline: good, garbage, good
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(d.addr()).unwrap();
    let good = serde_json::to_string(&run(
        TopologySpec::Torus { rows: 4, cols: 4 },
        AlgorithmSpec::Ring,
        1 << 16,
    ))
    .unwrap();
    writeln!(raw, "{good}").unwrap();
    writeln!(raw, "this is not json").unwrap();
    writeln!(raw, "\"Ping\"").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut responses = Vec::new();
    for _ in 0..3 {
        use std::io::BufRead;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        responses.push(serde_json::from_str::<Response>(line.trim()).unwrap());
    }
    assert!(matches!(responses[0], Response::Run(_)));
    assert!(matches!(responses[1], Response::Error(_)));
    assert!(matches!(responses[2], Response::Pong));

    // bad topology spec errors without killing the daemon
    let resp = client
        .request(&run(
            TopologySpec::Torus { rows: 0, cols: 4 },
            AlgorithmSpec::Ring,
            1 << 16,
        ))
        .unwrap();
    assert!(matches!(resp, Response::Error(_)));
    let resp = client
        .request(&run(
            TopologySpec::Torus { rows: 4, cols: 4 },
            AlgorithmSpec::Ring,
            1 << 16,
        ))
        .unwrap();
    assert!(matches!(resp, Response::Run(_)), "daemon still serving");
}

#[test]
fn overflowing_payload_errors_in_order_and_connection_survives() {
    // A payload whose flit counts overflow u64 gets a typed error reply
    // in its place in the stream, healthy and with a runtime fault plan,
    // and the connection keeps answering afterwards.
    let mut d = daemon(2);
    let mut client = Client::connect(d.addr()).unwrap();
    let cube = TopologySpec::Hypercube { dim: 4 };
    let flapped = Request::Run(RunRequest {
        topology: cube.clone(),
        algorithm: AlgorithmSpec::HalvingDoubling,
        payload_bytes: u64::MAX,
        engine: EngineSpec::Flow,
        faults: Some(FaultPlan::new().link_flap(LinkId::new(0), 100.0, 200.0)),
    });
    let requests = vec![
        run(cube.clone(), AlgorithmSpec::HalvingDoubling, 1 << 18),
        run(cube.clone(), AlgorithmSpec::HalvingDoubling, u64::MAX),
        flapped,
        Request::Ping,
        run(cube.clone(), AlgorithmSpec::HalvingDoubling, 1 << 18),
    ];
    let responses = client.batch(&requests).unwrap();
    assert_eq!(responses.len(), requests.len());
    let first = unwrap_run(responses[0].clone());
    for (i, resp) in responses[1..3].iter().enumerate() {
        let Response::Error(e) = resp else {
            panic!("request {}: expected an error, got {resp:?}", i + 1);
        };
        assert!(
            e.detail.contains("payload of 18446744073709551615 bytes overflows"),
            "request {}: {}",
            i + 1,
            e.detail
        );
    }
    assert!(matches!(responses[3], Response::Pong));
    let last = unwrap_run(responses[4].clone());
    assert_eq!(last.completion_ns, first.completion_ns);
    assert!(matches!(client.request(&Request::Ping).unwrap(), Response::Pong));
    drop(client);
    d.shutdown();
}
