//! Keep-alive deadlines belong to one connection. The reactor reuses a
//! closed connection's slot for the next one it accepts, and the timers the
//! old connection armed stay queued until they come due; none of them may
//! close the new connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use hdsampler_model::FormInterface;
use hdsampler_server::{HttpServer, ServerConfig};
use hdsampler_webform::LocalSite;
use hdsampler_workload::figure1_db;

const KEEP_ALIVE: Duration = Duration::from_millis(400);

/// One keep-alive `GET /` on `stream`: whether a response head came back
/// before the server closed the connection.
fn answered(stream: &mut TcpStream) -> bool {
    let req = "GET / HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n";
    if stream.write_all(req.as_bytes()).is_err() {
        return false;
    }
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut tmp) {
            Ok(0) | Err(_) => return false,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
        }
    }
    buf.starts_with(b"HTTP/1.1 200")
}

fn sleep_until(at: Instant) {
    sleep(at.saturating_duration_since(Instant::now()));
}

#[test]
fn a_reused_slot_ignores_the_previous_connections_deadlines() {
    let db = figure1_db(2);
    let schema = Arc::new(db.schema().clone());
    let server = HttpServer::serve(
        ServerConfig {
            reactor_threads: 1,
            keep_alive_timeout: KEEP_ALIVE,
            ..ServerConfig::default()
        },
        Arc::new(LocalSite::new(db, schema)),
    )
    .expect("bind loopback");
    let addr = server.addr();

    // The first connection arms its accept and keep-alive deadlines for
    // `start + KEEP_ALIVE`, then closes and frees its slot.
    let start = Instant::now();
    let mut first = TcpStream::connect(addr).expect("connect");
    assert!(answered(&mut first));
    sleep_until(start + KEEP_ALIVE / 2);
    drop(first);
    sleep(Duration::from_millis(50));

    // The second connection takes the freed slot. Its own deadline is a
    // full KEEP_ALIVE after it was accepted; the first connection's
    // deadlines come due in between and must not close it.
    let mut second = TcpStream::connect(addr).expect("connect");
    sleep_until(start + KEEP_ALIVE * 5 / 4);
    assert!(
        answered(&mut second),
        "a deadline armed by the slot's previous connection closed this one"
    );
    server.shutdown();
}
