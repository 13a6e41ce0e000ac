//! `/events` watchers are reactor slots, not threads: a one-loop server
//! holding hundreds of them runs the same threads as with none, and on
//! stop every watcher gets the frames published before the stop and the
//! chunk terminator.
//!
//! One test per file: the thread count is the whole process's, so no
//! other test may run beside it.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

#[test]
fn watchers_cost_no_threads() {
    const WATCHERS: usize = 256;
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

    // Once the loop answers, every server thread is up.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut page = String::new();
    probe.read_to_string(&mut page).unwrap();
    assert!(page.starts_with("HTTP/1.1 200"), "{page:.40}");
    let idle = threads();

    let hub = server.events();
    let watchers: Vec<TcpStream> = (0..WATCHERS)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            s
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while hub.subscribers() < WATCHERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(hub.subscribers(), WATCHERS, "every watcher subscribed");
    assert_eq!(threads(), idle, "{WATCHERS} watchers cost no thread");

    hub.publish_frame("sample", "{\"n\":1}");
    let stats = server.shutdown();
    assert_eq!(stats.open_connections, 0);
    for mut w in watchers {
        w.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut stream = String::new();
        w.read_to_string(&mut stream)
            .expect("the stream ends cleanly");
        assert!(stream.starts_with("HTTP/1.1 200 OK\r\n"), "{stream:.40}");
        assert!(stream.contains("data: {\"n\":1}\n\n"), "{stream}");
        assert!(stream.ends_with("\r\n0\r\n\r\n"), "{stream}");
    }
}
