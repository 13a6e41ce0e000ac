//! Admission cap (`ServerConfig::max_conns`): connections past the cap
//! are answered `503 Service Unavailable` + `Retry-After` and closed,
//! while admitted connections keep working — and keep their latency: a
//! reject never blocks the serve loop. One loop (`reactor_threads: 1`),
//! so anything that did would show up on the admitted connection.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsampler_model::FormInterface;
use hdsampler_server::{HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::LocalSite;
use hdsampler_workload::figure1_db;

fn capped(max_conns: usize) -> ServerHandle {
    let db = figure1_db(2);
    let schema = Arc::new(db.schema().clone());
    let site = Arc::new(LocalSite::new(db, schema));
    HttpServer::serve(
        ServerConfig {
            reactor_threads: 1,
            max_conns,
            ..ServerConfig::default()
        },
        site,
    )
    .expect("bind loopback")
}

/// Send one keep-alive GET and read exactly its response (headers plus
/// `Content-Length` body), leaving the connection open.
fn get_keep_alive(stream: &mut TcpStream, target: &str) -> String {
    let req = format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let (head_end, body_len) = loop {
        let n = stream.read(&mut tmp).expect("read response");
        assert!(n > 0, "server closed a keep-alive connection");
        buf.extend_from_slice(&tmp[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..pos]).to_lowercase();
            let len = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .expect("content-length header");
            break (pos + 4, len);
        }
    };
    while buf.len() < head_end + body_len {
        let n = stream.read(&mut tmp).expect("read body");
        assert!(n > 0, "short body");
        buf.extend_from_slice(&tmp[..n]);
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Everything the peer reads before a clean EOF — or, with `reset_ok`, a
/// reset (a peer still writing when its linger deadline closes the slot is
/// reset). A reject that never closes times out and fails here.
fn read_to_close(stream: &mut TcpStream, reset_ok: bool) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut out = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&tmp[..n]),
            Err(e) if reset_ok && e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("rejected connection never closed cleanly: {e}"),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn assert_rejected(reply: &str) {
    assert!(
        reply.starts_with("HTTP/1.1 503"),
        "over-cap conn rejected: {reply}"
    );
    let lower = reply.to_lowercase();
    assert!(
        lower.contains("retry-after: 1"),
        "advertises retry: {reply}"
    );
}

#[test]
fn reactor_over_cap_connection_gets_503_retry_after() {
    let server = capped(1);
    let addr = server.addr();

    // First connection: admitted, serves the landing page, stays open.
    let mut held = TcpStream::connect(addr).expect("dial held");
    let page = get_keep_alive(&mut held, "/");
    assert!(
        page.starts_with("HTTP/1.1 200"),
        "admitted conn serves: {page}"
    );

    // Second connection while the first is open: turned away.
    let mut extra = TcpStream::connect(addr).expect("dial extra");
    let _ = extra.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_rejected(&read_to_close(&mut extra, false));

    // The held connection still works after the rejection.
    let again = get_keep_alive(&mut held, "/");
    assert!(
        again.starts_with("HTTP/1.1 200"),
        "held conn lives: {again}"
    );
    drop(held);

    let stats = server.shutdown();
    assert!(stats.admission_rejects >= 1, "rejects counted: {stats:?}");
}

#[test]
fn uncapped_default_admits_concurrent_connections() {
    let server = capped(0);
    let addr = server.addr();
    let mut a = TcpStream::connect(addr).expect("dial a");
    let mut b = TcpStream::connect(addr).expect("dial b");
    assert!(get_keep_alive(&mut a, "/").starts_with("HTTP/1.1 200"));
    assert!(get_keep_alive(&mut b, "/").starts_with("HTTP/1.1 200"));
    drop((a, b));
    let stats = server.shutdown();
    assert_eq!(stats.admission_rejects, 0);
}

#[test]
fn over_cap_peers_cannot_stall_the_admitted_connection() {
    let server = capped(1);
    let addr = server.addr();
    let mut held = TcpStream::connect(addr).expect("dial admitted");
    held.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert!(get_keep_alive(&mut held, "/").starts_with("HTTP/1.1 200"));

    // One over-cap peer trickles a byte every 20 ms for 2 s, then reads
    // what it was answered; 200 more dial in and stay silent.
    let trickler = std::thread::spawn(move || {
        let mut peer = TcpStream::connect(addr).expect("dial trickler");
        let until = Instant::now() + Duration::from_secs(2);
        while Instant::now() < until && peer.write_all(b"G").is_ok() {
            std::thread::sleep(Duration::from_millis(20));
        }
        read_to_close(&mut peer, true)
    });
    let mut silent: Vec<TcpStream> = (0..200)
        .map(|_| TcpStream::connect(addr).expect("dial silent peer"))
        .collect();

    for _ in 0..20 {
        let start = Instant::now();
        assert!(get_keep_alive(&mut held, "/").starts_with("HTTP/1.1 200"));
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "over-cap peers stalled the admitted connection: a GET took {took:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    for peer in &mut silent {
        assert_rejected(&read_to_close(peer, false));
    }
    assert_rejected(&trickler.join().expect("trickler"));
    drop(held);
    let stats = server.shutdown();
    assert_eq!(stats.admission_rejects, 201, "{stats:?}");
    assert_eq!(stats.open_connections, 0, "rejects never touch the gauge");
}
