//! C10K smoke: a real `hdsampler serve` process holding ten thousand
//! concurrent keep-alive connections on its readiness loops, every one of
//! them doing pipelined HTTP exchanges — the load a thread-per-connection
//! server cannot carry.
//!
//! Two processes on purpose: the server is the released binary
//! (`CARGO_BIN_EXE_hdsampler`), so the file-descriptor budget splits
//! between the halves and the test exercises the same stdout contract a
//! shell user sees. Ignored by default — it needs ~10k fds and a few
//! seconds of wall clock — and run explicitly by CI's `c10k-smoke` job
//! with `--ignored`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections to hold open. Above the 10_000 assertion floor so a few
/// dial failures under load don't flake the run, while both processes
/// stay well inside a 20k-fd rlimit.
const CONNS: usize = 10_500;

/// The CI assertion floor: what "C10K" promises.
const FLOOR: usize = 10_000;

/// Dialer threads. The exchanges are loopback round trips, so a handful
/// of threads keeps the dial phase well inside the server's 5 s
/// keep-alive window even on a single-core runner.
const DIALERS: usize = 8;

/// A serve child that is killed on drop, so a failing assertion never
/// leaves an orphan listener behind.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boot `hdsampler serve local:… --port 0` and parse the bound address
/// from its startup banner; the rest of the child's stdout is drained by
/// a background thread so the pipe can never block the server.
fn spawn_serve() -> (ServeGuard, String) {
    let child = Command::new(env!("CARGO_BIN_EXE_hdsampler"))
        .args([
            "serve",
            "local:vehicles-compact?n=500&k=50",
            "--port",
            "0",
            "--serve-for",
            "120",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdsampler serve");
    let mut guard = ServeGuard(child);
    let stdout = guard.0.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before its banner")
            .expect("banner is utf-8");
        // "serving `vehicles-compact` (n = 500, top-50) on http://ADDR — form at /, ..."
        if let Some(rest) = line.split("on http://").nth(1) {
            break rest
                .split(" — ")
                .next()
                .expect("banner names the address")
                .to_string();
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (guard, addr)
}

fn request(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: c10k\r\nConnection: keep-alive\r\n\r\n")
}

/// One fresh-connection scrape of `/metrics`, returning the value of the
/// open-connection gauge the reactor maintains.
fn scrape_open_connections(addr: &str) -> f64 {
    let mut conn = TcpStream::connect(addr).expect("dial /metrics");
    conn.write_all(request("/metrics").as_bytes())
        .expect("send scrape");
    conn.write_all(b"")
        .and_then(|_| conn.flush())
        .expect("flush scrape");
    // Close our half so the body read below terminates at EOF once the
    // server finishes the response and times the connection out — but
    // the exposition arrives long before that; just bound the read.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut text = String::new();
    let mut buf = [0u8; 16 * 1024];
    while !text.contains("hds_server_open_connections") || !text.ends_with('\n') {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) => panic!("scrape read failed: {e}"),
        }
    }
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or(&text);
    hdsampler_core::parse_exposition(body)
        .expect("exposition parses")
        .get("hds_server_open_connections")
        .copied()
        .expect("gauge present")
}

/// Dial with a couple of retries: under a 10k-connection storm the
/// listener's accept backlog can momentarily fill even on loopback.
fn dial(addr: &str) -> Option<TcpStream> {
    for attempt in 0..3 {
        match TcpStream::connect(addr) {
            Ok(s) => return Some(s),
            Err(_) => std::thread::sleep(Duration::from_millis(5 << attempt)),
        }
    }
    None
}

#[test]
#[ignore = "needs ~10k fds; run by CI's c10k-smoke job with --ignored"]
fn reactor_serve_sustains_ten_thousand_keep_alive_connections() {
    let (_guard, addr) = spawn_serve();

    // Phase 1 — the storm: dial CONNS keep-alive connections, write one
    // pipelined GET on each as it lands (touching the slowloris timer),
    // and keep every socket open.
    let dial_started = Instant::now();
    let req = request("/");
    let mut held: Vec<TcpStream> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..DIALERS)
            .map(|d| {
                let addr = addr.as_str();
                let req = req.as_str();
                s.spawn(move || {
                    let quota = CONNS / DIALERS + usize::from(d < CONNS % DIALERS);
                    let mut conns = Vec::with_capacity(quota);
                    for _ in 0..quota {
                        let Some(mut conn) = dial(addr) else { continue };
                        if conn.write_all(req.as_bytes()).is_ok() {
                            conns.push(conn);
                        }
                    }
                    conns
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("dialer thread"))
            .collect()
    });
    assert!(
        held.len() >= FLOOR,
        "only {} of {CONNS} dials survived",
        held.len()
    );

    // Phase 2 — rearm: a second pipelined request on every held socket
    // resets each connection's idle timer to roughly now, guaranteeing
    // all of them are still open while the scrape below runs, however
    // long phase 1 took relative to the 5 s keep-alive timeout.
    for conn in &mut held {
        conn.write_all(req.as_bytes()).expect("pipelined rearm");
    }

    // Phase 3 — the headline number, read off the server's own gauge.
    let open = scrape_open_connections(&addr);
    assert!(
        open >= FLOOR as f64,
        "server gauge reports {open} open connections with {} held \
         (dial + rearm took {:?})",
        held.len(),
        dial_started.elapsed()
    );

    // Phase 4 — the connections are live HTTP, not just parked sockets:
    // spot-check that pipelined responses actually come back in order.
    for conn in held.iter_mut().take(16) {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut seen = String::new();
        let mut buf = [0u8; 4096];
        while seen.matches("HTTP/1.1 200").count() < 2 {
            let n = conn.read(&mut buf).expect("pipelined response");
            assert!(n > 0, "server hung up a keep-alive connection");
            seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
    }
}
