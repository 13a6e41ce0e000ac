//! The observability plane end-to-end: `/metrics` exposition scrapes,
//! client-stamped `x-hds-trace` ids landing in the server's request log,
//! and `/events` streaming bridged sample events to a remote watcher.

use std::sync::Arc;

use hdsampler_core::{parse_exposition, Sample, SampleEvent, SampleMeta, SampleSink};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::{FormInterface as _, Row, Schema};
use hdsampler_server::{BridgeSink, HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::{watch_events, HttpTransport, LocalSite, Transport};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};
use proptest::prelude::*;

fn vehicles_db(seed: u64) -> HiddenDb {
    WorkloadSpec::vehicles(
        VehiclesSpec::compact(400, seed),
        DbConfig::no_counts().with_k(50),
    )
    .build()
}

fn serve(db: HiddenDb) -> (ServerHandle, Arc<Schema>) {
    let schema = Arc::new(db.schema().clone());
    let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
    let handle = HttpServer::serve(ServerConfig::default(), site).expect("bind loopback");
    (handle, schema)
}

#[test]
fn metrics_scrapes_parse_and_stay_monotone() {
    let (server, _schema) = serve(vehicles_db(11));
    let addr = server.addr().to_string();
    let t = HttpTransport::new(addr);

    let scrape = |t: &HttpTransport| {
        let text = t.fetch("/metrics").expect("metrics served");
        parse_exposition(&text).expect("every line parses")
    };

    let first = scrape(&t);
    assert!(first.contains_key("hds_server_requests_total"));
    assert!(first.contains_key("hds_server_bytes_in_total"));
    assert!(first.contains_key("hds_server_route_requests_total{route=\"search\"}"));

    // Traffic between scrapes: a landing page and two search probes.
    t.fetch("/").expect("landing");
    let _ = t.fetch("/search?__bogus=1"); // 400s still count
    t.fetch("/metrics")
        .expect("second scrape warms its own counter");

    let second = scrape(&t);
    for (name, value) in &first {
        assert!(
            second.get(name).is_some_and(|v| v >= value),
            "counter {name} went backwards: {value} → {:?}",
            second.get(name)
        );
    }
    assert!(second["hds_server_route_requests_total{route=\"landing\"}"] >= 1.0);
    assert!(second["hds_server_route_requests_total{route=\"metrics\"}"] >= 2.0);
    assert!(second["hds_server_bytes_in_total"] > first["hds_server_bytes_in_total"]);

    // The final scrape agrees with the handle's own stats snapshot.
    let last = scrape(&t);
    let stats = server.stats();
    assert_eq!(
        last["hds_server_connections_total"] as u64,
        stats.connections
    );
    // The scrape's own response is written after its body was rendered,
    // so the handle's counter is at least the rendered value.
    assert!((last["hds_server_bytes_out_total"] as u64) <= stats.bytes_out);
    assert_eq!(
        last["hds_server_responses_total{class=\"client_error\"}"] as u64,
        stats.responses_client_error
    );
    server.shutdown();
}

#[test]
fn client_trace_ids_land_in_the_request_log() {
    let (server, _schema) = serve(vehicles_db(23));
    let addr = server.addr().to_string();
    let t = HttpTransport::new(addr);
    t.fetch("/").expect("landing");
    let _ = t.fetch("/search?"); // whatever the form thinks, it is logged
    t.fetch("/").expect("landing again");

    let log = server.request_log();
    assert_eq!(log.len(), 3);
    // The blocking face binds one connection, so the stamped ids are the
    // deterministic per-connection sequence c0-1, c0-2, c0-3.
    for (i, entry) in log.iter().enumerate() {
        assert_eq!(entry.seq, i as u64 + 1);
        assert_eq!(
            entry.trace,
            format!("c0-{}", i + 1),
            "client-stamped x-hds-trace id is echoed into the log"
        );
    }
    assert_eq!(log[0].target, "/");
    assert_eq!(log[0].status, 200);
    server.shutdown();
}

#[test]
fn trace_id_is_echoed_on_the_response() {
    use std::io::{Read as _, Write as _};
    let (server, _schema) = serve(vehicles_db(29));
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\nx-hds-trace: c9-42\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(
        resp.contains("x-hds-trace: c9-42\r\n"),
        "server echoes the span id: {}",
        resp.lines().take(8).collect::<Vec<_>>().join(" | ")
    );
    server.shutdown();
}

#[test]
fn events_stream_delivers_bridged_samples_to_a_watcher() {
    let (server, _schema) = serve(vehicles_db(31));
    let addr = server.addr().to_string();
    let hub = server.events();

    // A remote watcher subscribes over real TCP.
    let watcher = std::thread::spawn(move || {
        let mut seen = Vec::new();
        watch_events(&addr, |ev| {
            seen.push((ev.collected, ev.key));
            true
        })
        .map(|n| (n, seen))
    });

    // Give the watcher time to connect before publishing.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while hub.subscribers() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(hub.subscribers() > 0, "watcher never subscribed");

    // A local sink bridged onto the hub: every accepted-sample event it
    // sees must reach the remote watcher.
    let mut sink = BridgeSink::new(Arc::clone(&hub));
    let rows: Vec<Sample> = (1..=5)
        .map(|k| Sample {
            row: Row::new(k, vec![0], vec![]),
            weight: 1.0,
            meta: SampleMeta::default(),
        })
        .collect();
    for (i, s) in rows.iter().enumerate() {
        sink.observe(&SampleEvent {
            sample: s,
            site: 0,
            walker: 0,
            collected: i + 1,
            target: 5,
            queries: (i as u64 + 1) * 2,
            requests: (i as u64 + 1) * 3,
        });
    }

    // Shutdown ends the stream; the watcher's read loop terminates.
    server.shutdown();
    let (delivered, seen) = watcher.join().unwrap().expect("watcher stream clean");
    assert_eq!(delivered, 5, "every accepted-sample event arrived");
    assert_eq!(
        seen,
        vec![(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)],
        "in publish order, payloads intact"
    );
}

#[test]
fn a_reading_watcher_keeps_up_with_a_burst() {
    // A burst sixteen times the 4 MiB backlog cap, published faster than
    // the loop ticks: a watcher that keeps reading is paced, not shed, and
    // gets every frame and then the terminator.
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::{AtomicUsize, Ordering};
    const FRAMES: usize = 1024;
    let (server, _schema) = serve(vehicles_db(37));
    let hub = server.events();
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let received = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&received);
    let reader = std::thread::spawn(move || {
        let (mut buf, mut tail) = (vec![0u8; 1 << 16], Vec::new());
        loop {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => return tail,
                Ok(n) => {
                    counter.fetch_add(n, Ordering::Relaxed);
                    tail.extend_from_slice(&buf[..n]);
                    tail.drain(..tail.len().saturating_sub(16));
                }
            }
        }
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while hub.subscribers() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let frame = "x".repeat(64 << 10);
    for _ in 0..FRAMES {
        hub.publish_frame("blob", &frame);
    }
    let burst = FRAMES * frame.len();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while received.load(Ordering::Relaxed) < burst && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        received.load(Ordering::Relaxed) >= burst,
        "the reading watcher got the whole burst"
    );
    let stats = server.shutdown();
    assert_eq!(stats.events_shed, 0, "a reading watcher is never shed");
    assert!(reader.join().unwrap().ends_with(b"\r\n0\r\n\r\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: every `/metrics` line parses and the rendered values
    /// round-trip exactly, for arbitrary counter states.
    #[test]
    fn exposition_roundtrips_for_arbitrary_stats(
        connections in 0u64..1_000_000,
        requests in 0u64..1_000_000,
        ok in 0u64..1_000_000,
        client_err in 0u64..1_000_000,
        server_err in 0u64..1_000_000,
        dropped in 0u64..1_000_000,
        bytes_out in 0u64..u64::MAX / 2,
        bytes_in in 0u64..u64::MAX / 2,
        landing in 0u64..1_000_000,
        search in 0u64..1_000_000,
        metrics in 0u64..1_000_000,
        events in 0u64..1_000_000,
        other in 0u64..1_000_000,
        wakeups in 0u64..1_000_000,
        ready_events in 0u64..1_000_000,
        accepts in 0u64..1_000_000,
        timers in 0u64..1_000_000,
        open in 0u64..1_000_000,
        admission_rejects in 0u64..1_000_000,
        events_shed in 0u64..1_000_000,
    ) {
        let stats = hdsampler_server::ServerStats {
            connections,
            requests,
            responses_ok: ok,
            responses_client_error: client_err,
            responses_server_error: server_err,
            connections_dropped: dropped,
            bytes_out,
            bytes_in,
            requests_landing: landing,
            requests_search: search,
            requests_metrics: metrics,
            requests_events: events,
            requests_other: other,
            reactor_wakeups: wakeups,
            reactor_ready_events: ready_events,
            reactor_accepts: accepts,
            timers_fired: timers,
            open_connections: open,
            admission_rejects,
            events_shed,
        };
        let text = hdsampler_server::render_server_metrics(&stats, None);
        let parsed = parse_exposition(&text).expect("every line parses");
        prop_assert_eq!(parsed["hds_server_connections_total"] as u64, connections);
        prop_assert_eq!(parsed["hds_server_requests_total"] as u64, requests);
        prop_assert_eq!(parsed["hds_server_responses_total{class=\"ok\"}"] as u64, ok);
        prop_assert_eq!(
            parsed["hds_server_route_requests_total{route=\"search\"}"] as u64,
            search
        );
        prop_assert_eq!(parsed["hds_server_bytes_in_total"], bytes_in as f64);
        prop_assert_eq!(parsed["hds_server_reactor_wakeups_total"] as u64, wakeups);
        prop_assert_eq!(parsed["hds_server_open_connections"] as u64, open);
        prop_assert_eq!(
            parsed["hds_server_admission_rejects_total"] as u64,
            admission_rejects
        );
        prop_assert_eq!(parsed["hds_server_events_shed_total"] as u64, events_shed);
        prop_assert_eq!(parsed.len(), 20, "one series per counter (plus the gauge)");
    }
}
