//! EXP-C10K — the reactor under connection mass: dial-in rate, the cost
//! a parked horde imposes on foreground request service, and the
//! reactor's own bookkeeping counters.
//!
//! The reactor's claim is that a connection costs a slab slot, not a
//! thread, so one process can hold thousands of keep-alive connections
//! *and keep serving at full speed*. This experiment checks both halves of that
//! claim in-process: a horde of keep-alive connections is dialed and
//! parked (each having completed a real HTTP exchange), the server's own
//! open-connection gauge is read back, and a foreground prober measures
//! req/s on the empty reactor and again with the horde on the books.
//!
//! Everything runs in one process, so the fd budget splits between the
//! two ends of every loopback connection: 8 000 held connections ≈
//! 16 000 fds, inside the default 20 000 rlimit with room for the
//! harness.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsampler_bench::{f, section, table};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::FormInterface as _;
use hdsampler_server::{HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::{HttpTransport, LocalSite, Transport};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

const N_TUPLES: usize = 2_000;
const K: usize = 100;
const SEED: u64 = 2009;

/// Parked keep-alive connections — the "C10K" mass, sized to the
/// single-process fd budget (each costs two fds on loopback).
const HORDE: usize = 8_000;

/// Foreground requests per probe measurement.
const PROBE_REQS: usize = 2_000;

fn build_db() -> HiddenDb {
    WorkloadSpec::vehicles(
        VehiclesSpec::compact(N_TUPLES, SEED),
        DbConfig::no_counts().with_k(K),
    )
    .build()
}

fn serve() -> ServerHandle {
    let db = build_db();
    let schema = Arc::new(db.schema().clone());
    let site = Arc::new(LocalSite::new(db, schema));
    HttpServer::serve(
        ServerConfig {
            // The horde sits idle while probes run; don't let the
            // slowloris reaper dissolve the experiment mid-measurement.
            keep_alive_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        site,
    )
    .expect("bind loopback")
}

/// One keep-alive prober thread issuing `PROBE_REQS` fetches; req/s.
fn probe_req_per_sec(addr: &str) -> f64 {
    let transport = HttpTransport::new(addr.to_string());
    let paths = ["/search?make=Toyota", "/search?condition=used", "/search"];
    let start = Instant::now();
    for i in 0..PROBE_REQS {
        transport
            .fetch(paths[i % paths.len()])
            .expect("served page");
    }
    PROBE_REQS as f64 / start.elapsed().as_secs_f64()
}

/// Dial `count` keep-alive connections, write one pipelined GET on each
/// (a real exchange: the server parses, renders, flushes), keep every
/// socket open. Returns (held sockets, dial+request seconds).
fn park_horde(addr: &str, count: usize) -> (Vec<TcpStream>, f64) {
    let req = b"GET / HTTP/1.1\r\nHost: c10k\r\nConnection: keep-alive\r\n\r\n";
    let start = Instant::now();
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        let mut conn = TcpStream::connect(addr).expect("dial horde connection");
        conn.write_all(req).expect("horde request");
        held.push(conn);
        // Both ends share one core in-process; yield a beat every batch
        // so the reactor drains the accept queue faster than we fill it.
        if i % 1024 == 1023 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    (held, start.elapsed().as_secs_f64())
}

fn main() {
    section("EXP-C10K: epoll reactor under connection mass");
    println!(
        "  vehicles compact, n = {N_TUPLES}, k = {K}; {HORDE} parked keep-alive \
         connections, single-threaded foreground prober"
    );

    // Baseline: foreground service rate with an empty house.
    let server = serve();
    let addr = server.addr().to_string();
    let reactor_rps = probe_req_per_sec(&addr);

    // The mass: dial, exchange, park. The client-side dial loop outruns
    // accept_ready (connections queue in the 4096-deep backlog), so give
    // the gauge a moment to catch up before reading it.
    let (held, dial_secs) = park_horde(&addr, HORDE);
    let accept_deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().open_connections < HORDE as u64 && Instant::now() < accept_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let open = server.stats().open_connections;
    assert!(
        open >= HORDE as u64,
        "gauge reports {open} open connections with {HORDE} parked"
    );

    // Foreground service with the horde on the books: the number that
    // separates O(live connections) bookkeeping from O(ready events).
    let loaded_rps = probe_req_per_sec(&addr);

    table(
        &["configuration", "req/s", "vs empty"],
        &[
            vec!["reactor, empty".into(), f(reactor_rps, 0), "1.00".into()],
            vec![
                format!("reactor, {HORDE} parked"),
                f(loaded_rps, 0),
                f(loaded_rps / reactor_rps, 2),
            ],
        ],
    );
    println!(
        "  horde dial-in: {HORDE} connections (one exchange each) in {:.2} s \
         = {:.0} conn/s",
        dial_secs,
        HORDE as f64 / dial_secs
    );

    // Unpark: EOF every horde socket, let the reactor reap, then verify
    // its books balanced.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().open_connections > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.shutdown();
    assert_eq!(stats.responses_server_error, 0, "no 5xx under mass");
    assert_eq!(
        stats.open_connections, 0,
        "every reaped connection decremented the gauge"
    );
    println!(
        "  reactor books: {} wakeups, {} ready events, {} accepts, {} timers fired, \
         {} requests over {} connections",
        stats.reactor_wakeups,
        stats.reactor_ready_events,
        stats.reactor_accepts,
        stats.timers_fired,
        stats.requests,
        stats.connections,
    );
    assert!(
        stats.reactor_accepts as usize > HORDE,
        "horde + probes all arrived through accept_ready"
    );
    println!(
        "  PASS: {HORDE} parked connections held; foreground service at {:.2}x the \
         empty-reactor rate ({:.0} vs {:.0} req/s)",
        loaded_rps / reactor_rps,
        loaded_rps,
        reactor_rps
    );
}
