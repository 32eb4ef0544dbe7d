//! The daemon under test and the load generators that drive it.
//!
//! Generator hygiene matters more than it looks: every connection sets
//! `TCP_NODELAY` and sends each request line, newline included, in one
//! `write`. A line split over two writes meets Nagle's algorithm on the
//! client and delayed ACK on the daemon, which costs tens of
//! milliseconds per request and measures the kernel, not the daemon.

use crate::check;
use crate::stats;
use crate::workload::{encode, Workload};
use mt_serve::{Daemon, Request, Response, RunRequest, ServeConfig};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The daemon configuration every workload runs: the defaults (2
/// workers, coalescing up to 8 same-key runs) with the workload's cache
/// budget.
pub fn config(w: Workload) -> ServeConfig {
    ServeConfig {
        cache_bytes: w.cache_bytes(),
        ..ServeConfig::default()
    }
}

/// The reading half of a connection: one parsed response per line.
pub struct Replies {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Replies {
    pub fn next(&mut self) -> Result<Response, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                serde_json::from_str(self.line.trim()).map_err(|e| format!("bad reply line: {e}"))
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// One client connection.
pub struct Conn {
    tx: TcpStream,
    rx: Replies,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let tx = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        tx.set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(tx.try_clone().map_err(|e| format!("clone socket: {e}"))?);
        Ok(Conn {
            tx,
            rx: Replies {
                reader,
                line: String::new(),
            },
        })
    }

    /// Sends one encoded line (it already ends in `\n`) in one write.
    pub fn send(&mut self, line: &[u8]) -> Result<(), String> {
        self.tx.write_all(line).map_err(|e| format!("write: {e}"))
    }

    pub fn round_trip(&mut self, line: &[u8]) -> Result<Response, String> {
        self.send(line)?;
        self.rx.next()
    }
}

/// Starts a daemon for `w` and compiles `warm` through it, one request
/// at a time on one connection. Returns the daemon and the seconds from
/// spawn to the final `Pong`, i.e. until the warm set is compiled and
/// the daemon is ready.
pub fn set_up(w: Workload, warm: &[RunRequest]) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let daemon =
        Daemon::spawn("127.0.0.1:0", config(w)).map_err(|e| format!("spawn daemon: {e}"))?;
    let mut conn = Conn::connect(daemon.addr())?;
    for req in warm {
        let resp = conn.round_trip(&encode(req))?;
        check::reply(&resp).map_err(|e| format!("warm-up {req:?}: {e}"))?;
    }
    let mut ping = serde_json::to_string(&Request::Ping).expect("ping encodes");
    ping.push('\n');
    match conn.round_trip(ping.as_bytes())? {
        Response::Pong => Ok((daemon, started.elapsed().as_secs_f64())),
        other => Err(format!("ping answered {other:?}")),
    }
}

/// What one measured window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every successful reply, in ms.
    pub latencies_ms: Vec<f64>,
    /// When each successful reply arrived, in seconds from the window
    /// start (aligned with `latencies_ms`).
    pub done_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Window start to the last reply, in seconds.
    pub wall_s: f64,
    /// Open loop only: how late each request was sent, in ms.
    pub gen_lag_ms: Vec<f64>,
}

impl Window {
    fn record(&mut self, resp: &Response, latency: Duration, at_s: f64) {
        match check::reply(resp) {
            Ok(_) => {
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                self.done_s.push(at_s);
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
        self.wall_s = at_s;
    }

    /// Open loop: the p99 of how late sends were, in ms, or the latest
    /// send when the run is too short for a p99.
    pub fn gen_lag_p99_ms(&self) -> f64 {
        let mut lags = self.gen_lag_ms.clone();
        lags.sort_by(f64::total_cmp);
        stats::percentile(&lags, 0.99).unwrap_or_else(|| lags.last().copied().unwrap_or(0.0))
    }

    fn merge(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.done_s.extend(other.done_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
        self.wall_s = self.wall_s.max(other.wall_s);
    }
}

/// Closed loop: `connections` generator threads, one connection each,
/// keeping `in_flight` requests outstanding for `seconds` (or until
/// `limit` requests are sent), then draining. Connection `c` sends
/// stream requests `c, c + connections, …`, wrapping around `lines`, so
/// what each connection sends is fixed by the seed. Latency runs from
/// send to reply.
pub fn closed_loop(
    addr: SocketAddr,
    lines: &[Vec<u8>],
    connections: usize,
    in_flight: usize,
    seconds: f64,
    limit: usize,
) -> Result<Window, String> {
    let conns = (0..connections)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Result<Window, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                s.spawn(move || -> Result<Window, String> {
                    let mut w = Window::default();
                    let mut sent: VecDeque<Instant> = VecDeque::with_capacity(in_flight);
                    let mut next = c;
                    loop {
                        while sent.len() < in_flight && next < limit && Instant::now() < deadline {
                            let t = Instant::now();
                            conn.send(&lines[next % lines.len()])?;
                            sent.push_back(t);
                            next += connections;
                            w.attempted += 1;
                        }
                        let Some(t) = sent.pop_front() else { break };
                        let resp = conn.rx.next()?;
                        let now = Instant::now();
                        w.record(&resp, now - t, (now - start).as_secs_f64());
                    }
                    Ok(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut window = Window::default();
    for part in parts {
        window.merge(part?);
    }
    Ok(window)
}

/// Open loop: request `i` is due `due_s[i]` seconds after `start`. This
/// thread sends each line at its due time (or at once, if it is already
/// late) and one reader thread collects the replies. Latency runs from
/// the *due* time, so a stalled generator or daemon charges its delay to
/// every request queued behind it; how late each send was is returned as
/// `gen_lag_ms`.
pub fn open_loop(
    addr: SocketAddr,
    lines: &[Vec<u8>],
    due_s: &[f64],
    start: Instant,
) -> Result<Window, String> {
    let Conn { mut tx, mut rx } = Conn::connect(addr)?;
    let due = |i: usize| start + Duration::from_secs_f64(due_s[i]);
    std::thread::scope(|s| {
        let reader = s.spawn(move || -> Result<Window, String> {
            let mut w = Window::default();
            for i in 0..due_s.len() {
                let resp = rx.next().inspect_err(|_| {
                    // nobody reads replies any more: fail the writer's
                    // next send instead of letting it block on a full socket
                    let _ = rx.reader.get_ref().shutdown(std::net::Shutdown::Both);
                })?;
                let now = Instant::now();
                w.record(
                    &resp,
                    now.saturating_duration_since(due(i)),
                    (now - start).as_secs_f64(),
                );
            }
            Ok(w)
        });
        let mut lags = Vec::with_capacity(due_s.len());
        let mut sent = Ok(());
        for (i, line) in lines.iter().enumerate().take(due_s.len()) {
            let at = due(i);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            lags.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
            if let Err(e) = tx.write_all(line) {
                sent = Err(format!("write: {e}"));
                break;
            }
        }
        if sent.is_err() {
            // unblock the reader: no more replies are coming
            let _ = tx.shutdown(std::net::Shutdown::Both);
        }
        let mut w = reader.join().expect("reader thread panicked")?;
        sent?;
        w.attempted = due_s.len() as u64;
        w.gen_lag_ms = lags;
        Ok(w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_serve::{AlgorithmSpec, EngineSpec};
    use mt_topology::TopologySpec;

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        let daemon = Daemon::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
        let req = RunRequest {
            topology: TopologySpec::Torus { rows: 4, cols: 4 },
            algorithm: AlgorithmSpec::Ring,
            payload_bytes: 4 << 10,
            engine: EngineSpec::Flow,
            faults: None,
        };
        let lines = vec![encode(&req); 12];
        let due = vec![0.0; 12];
        // the window "started" 300 ms ago: every request is sent that
        // late, so each latency must include those 300 ms even though
        // the daemon answers a 16-node run in far less
        let start = Instant::now() - Duration::from_millis(300);
        let w = open_loop(daemon.addr(), &lines, &due, start).unwrap();
        assert_eq!((w.attempted, w.failed), (12, 0), "{:?}", w.first_error);
        assert_eq!(w.latencies_ms.len(), 12);
        for (lat, lag) in w.latencies_ms.iter().zip(&w.gen_lag_ms) {
            assert!(*lag >= 300.0, "generator lag {lag} ms");
            assert!(
                lat >= lag,
                "latency {lat} ms excludes the {lag} ms the send was late"
            );
        }
    }
}
