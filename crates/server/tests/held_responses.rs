//! Delayed responses (`Response::delay`) are held on the serve loop's
//! timer heap, never slept through. One loop (`reactor_threads: 1`), so a
//! loop that slept would show up as latency on every other connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsampler_model::FormInterface;
use hdsampler_server::{Adversary, HttpServer, Response, ServerConfig, ServerHandle, SiteBehavior};
use hdsampler_webform::{ChaosSpec, LocalSite};
use hdsampler_workload::figure1_db;

fn one_loop(site: Arc<impl SiteBehavior + 'static>) -> ServerHandle {
    let cfg = ServerConfig {
        reactor_threads: 1,
        ..ServerConfig::default()
    };
    HttpServer::serve(cfg, site).expect("bind loopback")
}

/// Write `requests` on a fresh connection and read the whole reply up to
/// EOF, noting the reply's length and the time after every read.
fn exchange(addr: SocketAddr, requests: &str) -> (String, Vec<(usize, Duration)>) {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(requests.as_bytes()).expect("write");
    let (mut reply, mut arrivals) = (Vec::new(), Vec::new());
    let mut tmp = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut tmp).expect("read to close");
        if n == 0 {
            break;
        }
        reply.extend_from_slice(&tmp[..n]);
        arrivals.push((reply.len(), start.elapsed()));
    }
    (String::from_utf8_lossy(&reply).into_owned(), arrivals)
}

/// When the reply first held `len` bytes.
fn arrived(arrivals: &[(usize, Duration)], len: usize) -> Duration {
    arrivals
        .iter()
        .find(|a| a.0 >= len)
        .expect("reply that long")
        .1
}

#[test]
fn concurrent_chaos_delays_overlap_on_one_loop() {
    // 8 concurrent requests, each delayed 200 ms by the adversary: held
    // on the timer heap they finish together in about one delay. A loop
    // that slept through each delay would finish them in a 1.6 s
    // staircase.
    let db = figure1_db(2);
    let schema = Arc::new(db.schema().clone());
    let spec = ChaosSpec::parse("seed=1,latency=200").expect("chaos spec");
    let server = one_loop(Arc::new(Adversary::new(LocalSite::new(db, schema), spec)));
    let addr = server.addr();

    let start = Instant::now();
    let replies: Vec<(String, Duration)> = std::thread::scope(|s| {
        let get = "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        let clients: Vec<_> = (0..8)
            .map(|_| s.spawn(move || (exchange(addr, get).0, start.elapsed())))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    for (reply, done) in &replies {
        assert!(reply.starts_with("HTTP/1.1 200"), "served: {reply:.80}");
        assert!(
            *done >= Duration::from_millis(200),
            "delay honoured: {done:?}"
        );
        assert!(
            *done < Duration::from_millis(450),
            "delayed requests overlap: one finished after {done:?}"
        );
    }
    assert_eq!(server.shutdown().responses_ok, 8);
}

/// Answers every target with its name and a 100 000-byte body, holding
/// `/slow` for 300 ms first.
struct Delayed;

impl SiteBehavior for Delayed {
    fn get(&self, target: &str) -> Response {
        let mut resp = Response::text(200, "OK", format!("{target}:{}", "z".repeat(100_000)));
        if target == "/slow" {
            resp.delay = Duration::from_millis(300);
        }
        resp
    }
}

#[test]
fn held_response_blocks_its_pipeline_and_survives_shutdown() {
    let server = one_loop(Arc::new(Delayed));
    let addr = server.addr();
    let reader = std::thread::spawn(move || {
        exchange(
            addr,
            "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n\
             GET /fast HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
    });
    // Stop while `/slow` is still held (and `/fast` waits behind it).
    std::thread::sleep(Duration::from_millis(100));
    let stats = server.shutdown();
    let (reply, arrivals) = reader.join().expect("reader");
    let first_byte = arrived(&arrivals, 1);

    assert!(
        first_byte >= Duration::from_millis(300),
        "nothing reaches the wire before the held response's deadline: {first_byte:?}"
    );
    let slow = reply.find("/slow:").expect("held response delivered");
    let fast = reply.find("/fast:").expect("pipelined response delivered");
    assert!(slow < fast, "responses keep request order");
    assert_eq!(
        reply.bytes().filter(|&b| b == b'z').count(),
        200_000,
        "both bodies arrive in full"
    );
    assert_eq!(stats.responses_ok, 2);
    assert_eq!(stats.open_connections, 0);
}

#[test]
fn answers_queued_before_a_held_one_are_not_held_with_it() {
    // `/fast` is answered at once and `/slow` 300 ms later: all of `/fast`
    // reaches the peer without waiting out `/slow`'s delay.
    let server = one_loop(Arc::new(Delayed));
    let (reply, arrivals) = exchange(
        server.addr(),
        "GET /fast HTTP/1.1\r\nHost: x\r\n\r\n\
         GET /slow HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    let fast_end = reply.find("/fast:").expect("fast") + "/fast:".len() + 100_000;
    let fast_done = arrived(&arrivals, fast_end);
    assert!(
        fast_done < Duration::from_millis(200),
        "the undelayed answer waited for the held one: {fast_done:?}"
    );
    assert!(reply.find("/slow:").expect("held response delivered") > fast_end);
    let all_done = arrivals.last().expect("reply").1;
    assert!(
        all_done >= Duration::from_millis(300),
        "delay honoured: {all_done:?}"
    );
    assert_eq!(server.shutdown().responses_ok, 2);
}
