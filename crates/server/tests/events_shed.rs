//! A watcher that stops reading cannot make the server buffer without
//! bound or stall its loop: once its unwritten output passes a fixed cap
//! it is shed and counted in `/metrics`, `GET /` on the same loop is
//! answered meanwhile, and shutdown leaves no connection or thread
//! behind.
//!
//! One test per file: the thread count is the whole process's, so no
//! other test may run beside it.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsampler_core::parse_exposition;
use hdsampler_model::FormInterface as _;
use hdsampler_server::{HttpServer, ServerConfig};
use hdsampler_webform::LocalSite;
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// One `GET` on a fresh connection; the whole response.
fn get(addr: SocketAddr, target: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("answered");
    resp
}

/// `hds_server_events_shed_total` as `/metrics` reports it.
fn shed(addr: SocketAddr) -> Option<f64> {
    let resp = get(addr, "/metrics");
    let body = resp.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    parse_exposition(body)
        .ok()?
        .get("hds_server_events_shed_total")
        .copied()
}

#[test]
fn a_stalled_watcher_is_shed_while_the_loop_serves_on() {
    let before = threads();
    let db = WorkloadSpec::vehicles(
        VehiclesSpec::compact(200, 3),
        DbConfig::no_counts().with_k(20),
    )
    .build();
    let schema = Arc::new(db.schema().clone());
    let server = HttpServer::serve(
        ServerConfig {
            reactor_threads: 1,
            ..ServerConfig::default()
        },
        Arc::new(LocalSite::new(db, schema)),
    )
    .expect("bind loopback");
    let addr = server.addr();
    let hub = server.events();

    // A watcher that subscribes and then never reads a byte.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .write_all(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while hub.subscribers() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(hub.subscribers(), 1, "the watcher subscribed");

    // 64 MiB of frames, paced so the hub's queue stays a few ticks deep.
    let frame = "x".repeat(64 << 10);
    for i in 0..1024 {
        hub.publish_frame("blob", &frame);
        if i % 8 == 7 {
            std::thread::sleep(Duration::from_millis(10));
        }
        if i == 512 {
            let started = Instant::now();
            let page = get(addr, "/");
            assert!(page.starts_with("HTTP/1.1 200"), "{page:.40}");
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "GET / waited {:?} behind the stalled watcher",
                started.elapsed()
            );
        }
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while shed(addr).unwrap_or(0.0) < 1.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        shed(addr).unwrap_or(0.0) >= 1.0,
        "the stalled watcher is shed and counted in /metrics"
    );

    let stats = server.shutdown();
    assert_eq!(stats.open_connections, 0, "nothing left open");
    // `pthread_join` returns once the exiting thread has signalled its
    // end (the kernel clears its tid and wakes the joiner), which happens
    // before the kernel has finished tearing the thread down and dropped
    // it from the process's `Threads:` count. So the count may lag the
    // join briefly; wait for it, then require exactly the count before.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "no thread left behind");
    drop(stalled);
}
