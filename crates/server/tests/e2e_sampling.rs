//! End-to-end: the unmodified sampler stack walks a *served* site over
//! real loopback TCP and agrees with the in-process transport.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hdsampler_core::{DirectExecutor, HdsSampler, Sampler, SamplerConfig};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::{FormInterface, Schema};
use hdsampler_server::{HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::{HttpTransport, LocalSite, RunPlan, SiteTask, WebFormInterface};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

fn vehicles_db(seed: u64, budget: Option<u64>) -> HiddenDb {
    let mut cfg = DbConfig::no_counts().with_k(50);
    if let Some(b) = budget {
        cfg = cfg.with_budget(b);
    }
    WorkloadSpec::vehicles(VehiclesSpec::compact(600, seed), cfg).build()
}

fn serve(db: HiddenDb) -> (ServerHandle, Arc<Schema>, usize) {
    let schema = Arc::new(db.schema().clone());
    let k = db.result_limit();
    let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
    let handle = HttpServer::serve(ServerConfig::default(), site).expect("bind loopback");
    (handle, schema, k)
}

#[test]
fn sampling_over_loopback_tcp_matches_in_process() {
    // Two identical databases: one behind a real socket, one in-process.
    let (server, schema, k) = serve(vehicles_db(77, None));
    let remote_iface = WebFormInterface::new(
        HttpTransport::new(server.addr().to_string()),
        Arc::clone(&schema),
        k,
        false,
    );

    let local_db = vehicles_db(77, None);
    let local_iface = WebFormInterface::new(
        LocalSite::new(local_db, Arc::clone(&schema)),
        Arc::clone(&schema),
        k,
        false,
    );

    // The production stack: history cache over the scraped interface, a
    // mid-slider walker. With the same seed the walker's decisions depend
    // only on the responses, so the two transports must produce the same
    // sample *sequence* — a far stronger check than matching estimates.
    let run = |iface: &dyn FormInterface| {
        let cfg = SamplerConfig::seeded(2009).with_slider(0.5);
        let mut sampler =
            HdsSampler::new(hdsampler_core::CachingExecutor::new(iface), cfg).unwrap();
        let mut keys = Vec::new();
        for _ in 0..40 {
            keys.push(sampler.next_sample().unwrap().row.key);
        }
        (keys, sampler.stats())
    };

    let (remote_keys, remote_stats) = run(&remote_iface);
    let (local_keys, local_stats) = run(&local_iface);

    // Same seed, same responses ⇒ the walker makes identical decisions:
    // the sample *sequences* agree, not just their distributions.
    assert_eq!(remote_keys, local_keys, "seeded walks must be identical");
    assert_eq!(remote_stats, local_stats, "and so must every counter");

    let stats = server.shutdown();
    assert_eq!(stats.requests, remote_stats.queries_issued);
    assert_eq!(stats.responses_ok, stats.requests, "every probe served 200");
    assert!(
        stats.connections < stats.requests,
        "keep-alive must reuse connections: {} conns for {} requests",
        stats.connections,
        stats.requests
    );
}

#[test]
fn run_plan_samples_live_servers() {
    // Two live servers, each its own data; one unmodified RunPlan drives
    // both over real TCP.
    let (s0, schema, k) = serve(vehicles_db(40, None));
    let (s1, _, _) = serve(vehicles_db(41, None));
    let mut tasks: Vec<SiteTask<HttpTransport>> = [&s0, &s1]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            SiteTask::new(
                format!("live-{i}"),
                WebFormInterface::new(
                    HttpTransport::new(s.addr().to_string()),
                    Arc::clone(&schema),
                    k,
                    false,
                ),
            )
        })
        .collect();
    let report = RunPlan::target(15).walkers(2).seed(5).run(&mut tasks);
    assert_eq!(report.total_samples(), 30);
    for site in &report.fleet.sites {
        assert_eq!(site.stopped, hdsampler_core::StopReason::TargetReached);
        assert!(site.queries_issued > 0);
    }
    let st0 = s0.shutdown();
    let st1 = s1.shutdown();
    assert!(st0.requests > 0 && st1.requests > 0);
    assert!(
        st0.connections >= 2,
        "two walkers ride two real connections"
    );
}

#[test]
fn budget_exhaustion_round_trips_the_wire() {
    use hdsampler_core::{SamplingSession, StopReason};
    let (server, schema, k) = serve(vehicles_db(9, Some(25)));
    let iface = WebFormInterface::new(
        HttpTransport::new(server.addr().to_string()),
        Arc::clone(&schema),
        k,
        false,
    );
    let exec = DirectExecutor::new(&iface);
    let session = SamplingSession::new(10_000);
    let mut sampler = HdsSampler::new(&exec, SamplerConfig::seeded(1)).unwrap();
    let outcome = session.run(&mut sampler, |_| {});
    assert_eq!(
        outcome.reason,
        StopReason::BudgetExhausted,
        "the 429 must surface as the same stop reason as in-process"
    );
    server.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let (server, _, _) = serve(vehicles_db(3, None));
    let t = HttpTransport::new(server.addr().to_string());
    use hdsampler_webform::Transport as _;
    for _ in 0..8 {
        t.fetch("/search").unwrap();
    }
    assert_eq!(t.connections(), 1, "one thread, one connection");
    let stats = server.shutdown();
    assert_eq!(stats.requests, 8);
    assert_eq!(
        stats.connections, 1,
        "eight keep-alive requests must share one server-side connection"
    );
}

#[test]
fn chunked_pages_round_trip() {
    // k large enough that the root results page is far past a socket
    // buffer. The server frames it with Content-Length like any complete
    // body; another server may send the same page chunked, and the client
    // must reassemble and scrape that too.
    let db = WorkloadSpec::vehicles(
        VehiclesSpec::compact(600, 8),
        DbConfig::no_counts().with_k(400),
    )
    .build();
    let (server, schema, k) = serve(db);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET /search HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let raw = read_until_close_or(&mut s, "NEVER-MATCHES");
    let (head, page) = raw.split_once("\r\n\r\n").expect("a response head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(!head.contains("Transfer-Encoding"), "{head}");
    assert!(
        head.contains(&format!("Content-Length: {}", page.len())),
        "{head}"
    );
    assert!(page.len() > 16 * 1024, "{} bytes", page.len());
    assert!(page.ends_with("</body></html>\n"), "body arrived whole");
    server.shutdown();

    // Serve the same page chunked from a one-shot peer.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let body = page.to_owned();
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut request = Vec::new();
        let mut tmp = [0u8; 4096];
        while !request.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = s.read(&mut tmp).unwrap();
            assert!(n > 0, "client hung up mid-request");
            request.extend_from_slice(&tmp[..n]);
        }
        let mut out = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\
                        Connection: close\r\nTransfer-Encoding: chunked\r\n\r\n"
            .to_vec();
        for chunk in body.as_bytes().chunks(8 * 1024) {
            write!(out, "{:X}\r\n", chunk.len()).unwrap();
            out.extend_from_slice(chunk);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
        s.write_all(&out).unwrap();
    });
    let iface = WebFormInterface::new(HttpTransport::new(addr.to_string()), schema, k, false);
    let resp = iface
        .execute(&hdsampler_model::ConjunctiveQuery::empty())
        .unwrap();
    assert!(resp.overflow);
    assert_eq!(resp.rows.len(), 400);
    peer.join().unwrap();
}

#[test]
fn raw_socket_semantics() {
    // Split writes, pipelining, landing page, 404/400, and non-GET — the
    // wire-level behaviours a scraper's transport relies on.
    let (server, _, _) = serve(vehicles_db(2, None));
    let addr = server.addr();

    // Landing page at `/`.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut head = read_until_close_or(&mut s, "</html>");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(head.contains("<form action=\"/search\""));

    // Byte-dribbled request: the server must wait for the terminator.
    let mut s = TcpStream::connect(addr).unwrap();
    for chunk in [
        &b"GET /sea"[..],
        b"rch?make=",
        b"Honda HTTP/1.1\r\n",
        b"Host: t\r\n\r\n",
    ] {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    head = read_until_close_or(&mut s, "</html>");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // Two pipelined requests on one connection answer FIFO.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        b"GET /nosuchpage HTTP/1.1\r\nHost: t\r\n\r\nGET /search?bogus=1 HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .unwrap();
    let both = read_until_close_or(&mut s, "400 bad request");
    let first = both
        .find("HTTP/1.1 404")
        .expect("first response is the 404");
    let second = both
        .find("HTTP/1.1 400")
        .expect("second response is the 400");
    assert!(first < second, "responses must arrive in request order");

    // Non-GET is 405 with Allow.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"DELETE /search HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let resp = read_until_close_or(&mut s, "405 method");
    assert!(resp.starts_with("HTTP/1.1 405"));
    assert!(resp.contains("Allow: GET"));

    server.shutdown();
}

#[test]
fn body_bearing_requests_are_refused_and_closed() {
    // Regression: a refused body must also close the connection —
    // answering 400 with keep-alive would let the unread body bytes be
    // parsed and served as the next request (request smuggling).
    let (server, _, _) = serve(vehicles_db(6, None));
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let smuggled = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n";
    let req = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        smuggled.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    s.write_all(smuggled).unwrap();
    let resp = read_until_close_or(&mut s, "NEVER-MATCHES");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    assert!(
        !resp.contains("/smuggled"),
        "the body must never be served as a request: {resp}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.requests, 1, "exactly one request parsed");
}

#[test]
fn http10_clients_never_get_chunked() {
    // Regression: chunked framing is HTTP/1.1-only. The server frames
    // every complete body with Content-Length, so a 1.0 client asking for
    // a page far past a socket buffer gets it too.
    let db = WorkloadSpec::vehicles(
        VehiclesSpec::compact(600, 8),
        DbConfig::no_counts().with_k(400),
    )
    .build();
    let (server, _, _) = serve(db);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET /search HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let resp = read_until_close_or(&mut s, "</html>");
    assert!(
        resp.starts_with("HTTP/1.1 200"),
        "{}",
        &resp[..40.min(resp.len())]
    );
    assert!(
        !resp.contains("Transfer-Encoding"),
        "1.0 client got chunked"
    );
    assert!(resp.contains("Content-Length:"));
    assert!(resp.len() > 16 * 1024, "a page past a socket buffer");
    server.shutdown();
}

#[test]
fn graceful_shutdown_stops_serving() {
    let (server, _, _) = serve(vehicles_db(4, None));
    let addr = server.addr();
    let t = HttpTransport::new(addr.to_string());
    use hdsampler_webform::Transport as _;
    t.fetch("/search").unwrap();
    let stats = server.shutdown();
    assert!(stats.requests >= 1);
    // After shutdown the listener is gone: a fresh fetch must fail, not
    // hang.
    let t2 = HttpTransport::new(addr.to_string());
    assert!(t2.fetch("/search").is_err());
}

/// Read with a timeout until the pattern shows up (or the peer closes).
fn read_until_close_or(s: &mut TcpStream, pat: &str) -> String {
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        if String::from_utf8_lossy(&buf).contains(pat) {
            break;
        }
        match s.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}
