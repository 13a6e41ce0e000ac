//! A real-TCP HTTP/1.1 client transport.
//!
//! [`HttpTransport`] is the live-wire counterpart of the one virtual wire,
//! [`ChaosTransport`](crate::chaos::ChaosTransport): it implements
//! the blocking [`Transport`] face (one keep-alive TCP connection, which
//! concurrent callers pipeline on) *and* the explicit-connection
//! [`AsyncTransport`] face (one TCP connection per [`ConnId`], requests
//! pipelined in FIFO order, completions harvested by non-blocking polls) —
//! so the unmodified walker/driver/session stack samples a live
//! [`hdsampler-server`](https://docs.rs/hdsampler-server) end-to-end over
//! loopback or a real network.
//!
//! The client is dependency-free: request writing, response parsing,
//! keep-alive reuse and reconnect-on-stale-connection are hand-rolled on
//! `std::net::TcpStream`. The parser reads `Content-Length` and `chunked`
//! bodies: `hdsampler serve` frames every page with `Content-Length`, but
//! another server may send chunked ones.
//!
//! ## Error fidelity
//!
//! The server encodes site-side failures so this client can reconstruct
//! the *same* [`InterfaceError`] values the in-process
//! [`LocalSite`](crate::transport::LocalSite) produces: `404`/`400` bodies
//! carry the exact in-process message text (returned as
//! [`InterfaceError::Transport`]), and `429` responses carry an
//! `x-hds-issued` header from which [`InterfaceError::BudgetExhausted`] is
//! rebuilt — so a remote sampling session stops with the same
//! `StopReason::BudgetExhausted` a local one would.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hdsampler_model::InterfaceError;
use parking_lot::Mutex;

use crate::aio::{AsyncTransport, ConnId, FetchHandle, FetchPoll};
use crate::reactor::{Epoll, RawFd};
use crate::transport::{Clocked, Transport};

/// Hard ceiling on a single response's size (64 MiB): a runaway or
/// malicious server must not balloon the scraper's memory.
pub(crate) const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// How long [`AsyncTransport::complete`] (and therefore a blocking fetch)
/// waits for a response before giving up.
const COMPLETE_TIMEOUT: Duration = Duration::from_secs(30);

/// One TCP connection's client-side state.
struct HttpConn {
    stream: Option<TcpStream>,
    /// Unparsed response bytes read so far.
    rx: Vec<u8>,
    /// Fetch ids awaiting responses on this connection, in request order —
    /// HTTP/1.1 answers pipelined requests strictly FIFO.
    outstanding: VecDeque<u64>,
    /// Resolved fetches not yet taken by poll/complete.
    done: HashMap<u64, Result<String, InterfaceError>>,
    /// Fetches abandoned via `cancel`; their responses are drained off the
    /// wire (FIFO alignment) and dropped.
    cancelled: std::collections::HashSet<u64>,
    /// Requests written on this connection so far — the per-connection
    /// sequence number inside the `x-hds-trace` id.
    sent: u64,
    /// The raw fd currently registered with the transport's epoll set.
    /// Tracked so teardown can deregister *before* the socket closes —
    /// a registration left behind a closed fd would alias whatever
    /// connection reuses that fd number.
    registered_fd: Option<RawFd>,
}

impl HttpConn {
    fn new() -> Self {
        HttpConn {
            stream: None,
            rx: Vec::new(),
            outstanding: VecDeque::new(),
            done: HashMap::new(),
            cancelled: std::collections::HashSet::new(),
            sent: 0,
            registered_fd: None,
        }
    }
}

/// A page fetcher over real TCP to an `hdsampler serve` front door.
pub struct HttpTransport {
    /// `host:port` of the server.
    addr: String,
    conns: Mutex<Vec<Arc<Mutex<HttpConn>>>>,
    /// The one connection the blocking face rides, opened on first use;
    /// concurrent callers pipeline on it.
    blocking: OnceLock<ConnId>,
    next_fetch: AtomicU64,
    requests: AtomicU64,
    bytes_received: AtomicU64,
    /// Wall clock of the first submitted request, set once.
    start: Mutex<Option<Instant>>,
    /// Milliseconds from `start` to the most recent completion.
    last_done_ms: AtomicU64,
    /// Lazily-created epoll set behind [`AsyncTransport::wait_ready`]
    /// (`None` once initialization fails — Windows, or fd exhaustion).
    poller: OnceLock<Option<Epoll>>,
}

impl std::fmt::Debug for HttpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpTransport")
            .field("addr", &self.addr)
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl HttpTransport {
    /// A transport that will fetch pages from `addr` (`host:port`).
    /// Connections are opened lazily: one for the blocking face, one per
    /// [`AsyncTransport::connect`] call.
    pub fn new(addr: impl Into<String>) -> Self {
        HttpTransport {
            addr: addr.into(),
            conns: Mutex::new(Vec::new()),
            blocking: OnceLock::new(),
            next_fetch: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            start: Mutex::new(None),
            last_done_ms: AtomicU64::new(0),
            poller: OnceLock::new(),
        }
    }

    /// The server address this transport talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests written to the wire so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Response bytes received so far (headers + bodies).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// TCP connections opened so far.
    pub fn connections(&self) -> usize {
        self.conns.lock().len()
    }

    /// Connections whose TCP socket is currently open.
    pub fn open_connections(&self) -> usize {
        self.conns
            .lock()
            .iter()
            .filter(|cell| cell.lock().stream.is_some())
            .count()
    }

    /// Connections currently registered with the reactor's epoll set
    /// (0 when no reactor is available or nothing has waited yet).
    pub fn registered_conns(&self) -> usize {
        self.conns
            .lock()
            .iter()
            .filter(|cell| cell.lock().registered_fd.is_some())
            .count()
    }

    /// The shared epoll set, created on first use. `None` means this
    /// process has no reactor (Windows, or poller creation failed) and
    /// every caller falls back to blocking reads.
    fn poller(&self) -> Option<&Epoll> {
        self.poller.get_or_init(|| Epoll::new().ok()).as_ref()
    }

    /// Remove `c`'s fd from the epoll set if it is registered. Safe to
    /// call with the stream already gone: the tracked fd, not the
    /// stream, drives the deregistration.
    fn deregister_conn(&self, c: &mut HttpConn) {
        if let Some(fd) = c.registered_fd.take() {
            if let Some(ep) = self.poller() {
                let _ = ep.deregister(fd);
            }
        }
    }

    /// Tear down `c`'s stream. Deregistration happens *before* the
    /// socket closes: the kernel would forget the epoll entry on close
    /// anyway, but our userspace `registered_fd` note would survive —
    /// and a later deregister against that stale number would silently
    /// detach whichever live connection reused the fd.
    fn drop_stream(&self, c: &mut HttpConn) {
        self.deregister_conn(c);
        c.stream = None;
    }

    /// Close the socket of every connection with no outstanding fetch;
    /// returns the number of sockets closed. The connections stay: the
    /// next request on one reopens its socket.
    ///
    /// Drivers call this when a site finishes, so its keep-alive sockets
    /// do not stay open for the rest of the run. Connections with an
    /// *awaited* in-flight request are left untouched; outstanding
    /// fetches that were all cancelled hold nothing anyone will take, so
    /// their connection closes too (the unread responses die with the
    /// socket).
    pub fn close_idle(&self) -> usize {
        let conns = self.conns.lock();
        let mut closed = 0;
        for cell in conns.iter() {
            let mut c = cell.lock();
            let awaited = c.outstanding.iter().any(|id| !c.cancelled.contains(id));
            if !awaited && c.stream.is_some() {
                self.drop_stream(&mut c);
                c.rx.clear();
                c.outstanding.clear();
                c.cancelled.clear();
                closed += 1;
            }
        }
        closed
    }

    fn conn(&self, id: ConnId) -> Arc<Mutex<HttpConn>> {
        Arc::clone(&self.conns.lock()[id.index()])
    }

    fn note_start(&self) {
        let mut start = self.start.lock();
        if start.is_none() {
            *start = Some(Instant::now());
        }
    }

    fn note_done(&self) {
        if let Some(start) = *self.start.lock() {
            let ms = start.elapsed().as_millis() as u64;
            self.last_done_ms.fetch_max(ms.max(1), Ordering::Relaxed);
        }
    }

    /// Ensure `c` has a live stream, (re)connecting if needed.
    fn ensure_stream(&self, c: &mut HttpConn) -> std::io::Result<()> {
        if c.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(COMPLETE_TIMEOUT))?;
            c.stream = Some(stream);
            c.rx.clear();
        }
        Ok(())
    }

    /// Write one GET request for `path` on `c`'s stream, stamped with a
    /// deterministic `x-hds-trace: c{conn}-{seq}` id the server echoes
    /// into its per-request log — the cross-process span correlation.
    fn write_request(&self, c: &mut HttpConn, conn: ConnId, path: &str) -> std::io::Result<()> {
        self.ensure_stream(c)?;
        c.sent += 1;
        let req = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nUser-Agent: hdsampler\r\n\
             x-hds-trace: c{}-{}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            conn.index(),
            c.sent
        );
        let stream = c.stream.as_mut().expect("stream ensured above");
        stream.write_all(req.as_bytes())?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read whatever the stream will give (respecting its blocking mode)
    /// and resolve complete responses FIFO. Returns `false` once the
    /// connection is unusable (EOF or I/O error), after failing every
    /// still-outstanding fetch.
    fn pump(&self, c: &mut HttpConn) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            // Resolve as many buffered responses as possible first, so a
            // closed connection still yields everything it delivered.
            loop {
                match try_parse_response(&c.rx) {
                    Ok(None) => break,
                    Ok(Some((resp, consumed))) => {
                        c.rx.drain(..consumed);
                        let keep_alive = !resp.connection_close;
                        let result = response_to_result(resp);
                        if let Some(id) = c.outstanding.pop_front() {
                            if !c.cancelled.remove(&id) {
                                c.done.insert(id, result);
                            }
                            self.note_done();
                        }
                        if !keep_alive {
                            self.drop_stream(c);
                        }
                        if c.stream.is_none() {
                            return self.fail_outstanding(c, "server closed the connection");
                        }
                    }
                    Err(msg) => {
                        return self.fail_outstanding(c, &format!("malformed response: {msg}"));
                    }
                }
            }
            if c.outstanding.is_empty() {
                return true;
            }
            let Some(stream) = c.stream.as_mut() else {
                return self.fail_outstanding(c, "connection lost");
            };
            match stream.read(&mut buf) {
                Ok(0) => {
                    return self.fail_outstanding(c, "server closed the connection");
                }
                Ok(n) => {
                    if c.rx.len() + n > MAX_RESPONSE_BYTES {
                        return self.fail_outstanding(c, "response exceeds size limit");
                    }
                    c.rx.extend_from_slice(&buf[..n]);
                    self.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    return self.fail_outstanding(c, &format!("read failed: {e}"));
                }
            }
        }
    }

    /// Fail every outstanding fetch on `c` with a transport error. Always
    /// returns `false` (the connection is gone).
    ///
    /// Unresolved bytes in the receive buffer belong to the front-of-FIFO
    /// fetch: its response started arriving, so the server *did* serve it
    /// (and charged for it) before the connection died. That fetch fails
    /// with a distinct "mid-response" message that no retry path treats as
    /// retryable — resubmitting it would double-charge the site and, under
    /// the old blanket message, desync the pipelined FIFO. The fetches
    /// behind it never got a byte and stay safely retryable.
    fn fail_outstanding(&self, c: &mut HttpConn, why: &str) -> bool {
        self.drop_stream(c);
        let mut partial = !c.rx.is_empty();
        c.rx.clear();
        while let Some(id) = c.outstanding.pop_front() {
            if !c.cancelled.remove(&id) {
                let msg = if partial {
                    format!(
                        "connection to {}: connection died mid-response (partial bytes \
                         discarded; {why})",
                        self.addr
                    )
                } else {
                    format!("connection to {}: {why}", self.addr)
                };
                c.done.insert(id, Err(InterfaceError::Transport(msg)));
            }
            partial = false;
        }
        false
    }

    /// Switch `c`'s stream between blocking and non-blocking mode.
    fn set_blocking(c: &mut HttpConn, blocking: bool) {
        if let Some(stream) = c.stream.as_ref() {
            let _ = stream.set_nonblocking(!blocking);
        }
    }

    /// Submit on an explicit connection, recording failures as the fetch's
    /// result (submit itself never errors, matching the trait contract).
    fn submit_on(&self, conn: ConnId, path: &str) -> FetchHandle {
        self.note_start();
        let id = self.next_fetch.fetch_add(1, Ordering::Relaxed);
        let cell = self.conn(conn);
        let mut c = cell.lock();
        Self::set_blocking(&mut c, true);
        match self.write_request(&mut c, conn, path) {
            Ok(()) => {
                c.outstanding.push_back(id);
            }
            Err(e) => {
                self.drop_stream(&mut c);
                c.done.insert(
                    id,
                    Err(InterfaceError::Transport(format!(
                        "connection to {}: write failed: {e}",
                        self.addr
                    ))),
                );
            }
        }
        FetchHandle {
            conn,
            id,
            ready_at: 0,
            queued_ms: 0,
            service_ms: 0,
        }
    }

    /// One `epoll_wait` across every connection with an awaited in-flight
    /// fetch; ready connections are pumped non-blocking. See
    /// [`AsyncTransport::wait_ready`] for the contract.
    #[cfg(unix)]
    fn wait_ready_impl(&self, timeout_ms: u64) -> Option<usize> {
        use crate::reactor::Interest;
        use std::os::fd::AsRawFd;

        let ep = self.poller()?;
        // Snapshot the cells so the vec lock is not held across the wait
        // (connect/submit from other threads must stay free to run).
        let cells: Vec<Arc<Mutex<HttpConn>>> = self.conns.lock().to_vec();
        let mut awaiting = 0usize;
        for (idx, cell) in cells.iter().enumerate() {
            let mut c = cell.lock();
            if !c.done.is_empty() {
                // A completion is already harvestable — report progress
                // instead of sleeping on the wire (lost-wakeup guard).
                return Some(1);
            }
            let awaited = c.outstanding.iter().any(|id| !c.cancelled.contains(id));
            let fd = match (&c.stream, awaited) {
                (Some(stream), true) => Some(stream.as_raw_fd()),
                _ => None,
            };
            match fd {
                Some(fd) => {
                    if c.registered_fd != Some(fd) {
                        // Reconnected under a new fd: retire the stale
                        // registration before adding the live one.
                        self.deregister_conn(&mut c);
                        if ep.register(fd, idx as u64, Interest::Read).is_ok() {
                            c.registered_fd = Some(fd);
                        }
                    }
                    awaiting += 1;
                }
                None => {
                    // Idle connections leave the set: a level-triggered
                    // EOF on an idle keep-alive socket would otherwise
                    // wake every wait without ever being consumed
                    // (`pump` deliberately ignores idle sockets).
                    self.deregister_conn(&mut c);
                }
            }
        }
        if awaiting == 0 {
            return Some(0);
        }
        let mut events = Vec::new();
        let timeout = timeout_ms.min(i32::MAX as u64) as i32;
        let n = ep.wait(&mut events, timeout).unwrap_or(0);
        let mut pumped = 0;
        for ev in events.iter().take(n) {
            let Some(cell) = cells.get(ev.token as usize) else {
                continue;
            };
            let mut c = cell.lock();
            Self::set_blocking(&mut c, false);
            // A dead connection fails its fetches inside `pump` (and
            // deregisters via `drop_stream`) — that still counts as
            // progress for the caller's re-poll.
            self.pump(&mut c);
            Self::set_blocking(&mut c, true);
            pumped += 1;
        }
        Some(pumped)
    }
}

impl AsyncTransport for HttpTransport {
    fn connect(&self) -> ConnId {
        let mut conns = self.conns.lock();
        let id = u32::try_from(conns.len()).expect("connection count fits u32");
        conns.push(Arc::new(Mutex::new(HttpConn::new())));
        ConnId(id)
    }

    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        self.submit_on(conn, path)
    }

    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        let cell = self.conn(handle.conn);
        let mut c = cell.lock();
        if let Some(result) = c.done.remove(&handle.id) {
            return FetchPoll::Ready(result);
        }
        // Non-blocking progress: drain what the socket has, no more.
        Self::set_blocking(&mut c, false);
        self.pump(&mut c);
        Self::set_blocking(&mut c, true);
        match c.done.remove(&handle.id) {
            Some(result) => FetchPoll::Ready(result),
            None => FetchPoll::Pending(handle),
        }
    }

    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        let cell = self.conn(handle.conn);
        let deadline = Instant::now() + COMPLETE_TIMEOUT;
        loop {
            let mut c = cell.lock();
            if let Some(result) = c.done.remove(&handle.id) {
                return result;
            }
            // Blocking progress: the stream's read timeout bounds each
            // wait, the deadline bounds the whole completion.
            Self::set_blocking(&mut c, true);
            self.pump(&mut c);
            if let Some(result) = c.done.remove(&handle.id) {
                return result;
            }
            if !c.outstanding.contains(&handle.id) {
                // Failed and consumed by an earlier error path.
                return Err(InterfaceError::Transport(format!(
                    "connection to {}: fetch was dropped",
                    self.addr
                )));
            }
            if Instant::now() >= deadline {
                return Err(InterfaceError::Transport(format!(
                    "connection to {}: response timed out",
                    self.addr
                )));
            }
        }
    }

    fn cancel(&self, handle: FetchHandle) {
        let cell = self.conn(handle.conn);
        let mut c = cell.lock();
        if c.done.remove(&handle.id).is_none() && c.outstanding.contains(&handle.id) {
            c.cancelled.insert(handle.id);
        }
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        self.last_done_ms.load(Ordering::Relaxed)
    }

    fn wire_is_virtual(&self) -> bool {
        // TCP runs on the physical clock: backoffs must genuinely wait.
        false
    }

    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        #[cfg(unix)]
        {
            self.wait_ready_impl(timeout_ms)
        }
        #[cfg(not(unix))]
        {
            let _ = timeout_ms;
            None
        }
    }
}

impl Transport for HttpTransport {
    fn close_idle(&self) -> usize {
        HttpTransport::close_idle(self)
    }

    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        let conn = *self.blocking.get_or_init(|| self.connect());
        let handle = self.submit_on(conn, path);
        let result = self.complete(handle);
        match result {
            // A stale keep-alive connection (server idled us out between
            // fetches) surfaces as a closed-connection error on an
            // otherwise quiet connection; GET is idempotent, so retry once
            // on a fresh connection. Never after partial response bytes
            // were consumed ("mid-response"): the server already served —
            // and charged — that request, so resubmitting it would
            // double-charge the site.
            Err(InterfaceError::Transport(ref msg))
                if msg.contains("closed the connection") && !msg.contains("mid-response") =>
            {
                let handle = self.submit_on(conn, path);
                self.complete(handle)
            }
            other => other,
        }
    }
}

impl Clocked for HttpTransport {
    fn elapsed_ms(&self) -> u64 {
        self.last_done_ms.load(Ordering::Relaxed)
    }
}

/// One parsed HTTP response.
struct ParsedResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    connection_close: bool,
}

impl ParsedResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Map a parsed response onto the `Transport::fetch` result space,
/// reconstructing the in-process error values (see module docs).
fn response_to_result(resp: ParsedResponse) -> Result<String, InterfaceError> {
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    match resp.status {
        200 => Ok(body),
        // Two different 429s come down this wire. A budget 429 carries the
        // server's `x-hds-issued` header and is terminal: the site will
        // never answer this client again. A throttle 429 carries only
        // `Retry-After` (exact milliseconds in `x-hds-retry-after-ms` when
        // the adversary supplies them) and is an invitation to back off
        // and retry.
        429 => match resp.header("x-hds-issued").and_then(|v| v.parse().ok()) {
            Some(issued) => Err(InterfaceError::BudgetExhausted { issued }),
            None => {
                let retry_after_ms = resp
                    .header("x-hds-retry-after-ms")
                    .and_then(|v| v.parse().ok())
                    .or_else(|| {
                        resp.header("retry-after")
                            .and_then(|v| v.parse::<u64>().ok())
                            .map(|secs| secs * 1_000)
                    })
                    .unwrap_or(1_000);
                Err(InterfaceError::Throttled { retry_after_ms })
            }
        },
        // A 400 is the server refusing the *request shape* itself — the
        // client's schema has drifted from the served form. Rebuild the
        // terminal in-process error (body carried verbatim) so remote
        // drivers fail as fast as in-process ones instead of retrying.
        400 => Err(InterfaceError::SchemaMismatch(if body.is_empty() {
            "HTTP 400".into()
        } else {
            body
        })),
        status => Err(InterfaceError::Transport(if body.is_empty() {
            format!("HTTP {status}")
        } else {
            body
        })),
    }
}

/// Find the end of an HTTP header section; returns the offset *past* the
/// blank line. Accepts both CRLF and bare-LF line endings. Shared with the
/// server crate (`hdsampler-server`), whose request parser must agree with
/// this client byte for byte on where headers stop.
pub fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

/// Try to parse one complete response from the front of `buf`.
///
/// Returns `Ok(Some((response, bytes_consumed)))` when complete,
/// `Ok(None)` when more bytes are needed, `Err` on malformed data.
fn try_parse_response(buf: &[u8]) -> Result<Option<(ParsedResponse, usize)>, String> {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > 64 * 1024 {
            return Err("header section exceeds 64 KiB".into());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| "non-UTF-8 header bytes")?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let status_line = lines.next().ok_or("missing status line")?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad version `{version}`"));
    }
    let status: u16 = parts
        .next()
        .ok_or("missing status code")?
        .parse()
        .map_err(|_| "non-numeric status code")?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or("header line without colon")?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    let connection_close = header("connection")
        .map(|v| v.eq_ignore_ascii_case("close"))
        .unwrap_or(false);

    let chunked = header("transfer-encoding")
        .map(|v| v.eq_ignore_ascii_case("chunked"))
        .unwrap_or(false);
    if chunked {
        let Some((body, consumed_body)) = parse_chunked_body(&buf[header_end..])? else {
            return Ok(None);
        };
        return Ok(Some((
            ParsedResponse {
                status,
                headers,
                body,
                connection_close,
            },
            header_end + consumed_body,
        )));
    }

    let len: usize = match header("content-length") {
        Some(v) => v.parse().map_err(|_| "bad content-length")?,
        None => 0,
    };
    if len > MAX_RESPONSE_BYTES {
        return Err("content-length exceeds size limit".into());
    }
    if buf.len() < header_end + len {
        return Ok(None);
    }
    Ok(Some((
        ParsedResponse {
            status,
            headers,
            body: buf[header_end..header_end + len].to_vec(),
            connection_close,
        },
        header_end + len,
    )))
}

/// Parse a chunked body from `buf`; `Ok(Some((body, consumed)))` when the
/// terminating 0-chunk (and trailing blank line) is present.
fn parse_chunked_body(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, String> {
    let mut body = Vec::new();
    let mut i = 0;
    loop {
        // Chunk-size line.
        let Some(nl) = buf[i..].iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line = std::str::from_utf8(&buf[i..i + nl])
            .map_err(|_| "non-UTF-8 chunk size")?
            .trim_end_matches('\r');
        // Chunk extensions (";ext=...") are allowed by the grammar; strip.
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16).map_err(|_| "bad chunk size")?;
        if body.len() + size > MAX_RESPONSE_BYTES {
            return Err("chunked body exceeds size limit".into());
        }
        i += nl + 1;
        if size == 0 {
            // Optional trailers, then a blank line.
            loop {
                let Some(nl) = buf[i..].iter().position(|&b| b == b'\n') else {
                    return Ok(None);
                };
                let line = &buf[i..i + nl];
                i += nl + 1;
                if line.is_empty() || line == b"\r" {
                    return Ok(Some((body, i)));
                }
            }
        }
        // Chunk data + CRLF.
        if buf.len() < i + size + 1 {
            return Ok(None);
        }
        body.extend_from_slice(&buf[i..i + size]);
        i += size;
        // Consume the chunk's trailing CRLF (or LF).
        if buf.get(i) == Some(&b'\r') {
            i += 1;
        }
        match buf.get(i) {
            Some(&b'\n') => i += 1,
            Some(_) => return Err("chunk data not followed by CRLF".into()),
            None => return Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> (ParsedResponse, usize) {
        try_parse_response(bytes)
            .expect("well-formed")
            .expect("complete")
    }

    #[test]
    fn content_length_response_parses() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello";
        let (resp, used) = parse_all(raw);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hello");
        assert_eq!(used, raw.len());
        assert!(!resp.connection_close);
    }

    #[test]
    fn chunked_response_parses() {
        let raw =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let (resp, used) = parse_all(raw);
        assert_eq!(resp.body, b"hello world");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn partial_responses_ask_for_more() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhell";
        assert!(try_parse_response(raw).unwrap().is_none());
        let raw = b"HTTP/1.1 200 OK\r\nContent-Len";
        assert!(try_parse_response(raw).unwrap().is_none());
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel";
        assert!(try_parse_response(raw).unwrap().is_none());
    }

    #[test]
    fn pipelined_responses_split_correctly() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nA".to_vec();
        let two = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nBB".to_vec();
        let mut both = one.clone();
        both.extend_from_slice(&two);
        let (first, used) = parse_all(&both);
        assert_eq!(first.body, b"A");
        let (second, used2) = parse_all(&both[used..]);
        assert_eq!(second.status, 404);
        assert_eq!(second.body, b"BB");
        assert_eq!(used + used2, both.len());
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(try_parse_response(b"NOPE 200\r\n\r\n").is_err());
        assert!(try_parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(try_parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n").is_err());
        assert!(
            try_parse_response(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n")
                .is_err()
        );
    }

    #[test]
    fn status_mapping_reconstructs_interface_errors() {
        let ok = ParsedResponse {
            status: 200,
            headers: vec![],
            body: b"page".to_vec(),
            connection_close: false,
        };
        assert_eq!(response_to_result(ok).unwrap(), "page");

        let budget = ParsedResponse {
            status: 429,
            headers: vec![("x-hds-issued".into(), "42".into())],
            body: b"query budget exhausted after 42 queries".to_vec(),
            connection_close: false,
        };
        assert_eq!(
            response_to_result(budget).unwrap_err(),
            InterfaceError::BudgetExhausted { issued: 42 }
        );

        let not_found = ParsedResponse {
            status: 404,
            headers: vec![],
            body: b"404 not found: `/x` (this site serves `/search`)".to_vec(),
            connection_close: false,
        };
        match response_to_result(not_found).unwrap_err() {
            InterfaceError::Transport(msg) => assert!(msg.starts_with("404 not found")),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn throttle_429_is_distinct_from_budget_429() {
        // Only an `x-hds-issued`-bearing 429 is budget exhaustion.
        let throttled = ParsedResponse {
            status: 429,
            headers: vec![
                ("Retry-After".into(), "2".into()),
                ("x-hds-retry-after-ms".into(), "250".into()),
            ],
            body: b"slow down".to_vec(),
            connection_close: false,
        };
        assert_eq!(
            response_to_result(throttled).unwrap_err(),
            InterfaceError::Throttled {
                retry_after_ms: 250
            },
            "exact-ms header wins"
        );
        let coarse = ParsedResponse {
            status: 429,
            headers: vec![("Retry-After".into(), "2".into())],
            body: Vec::new(),
            connection_close: false,
        };
        assert_eq!(
            response_to_result(coarse).unwrap_err(),
            InterfaceError::Throttled {
                retry_after_ms: 2_000
            },
            "Retry-After seconds convert to ms"
        );
        let bare = ParsedResponse {
            status: 429,
            headers: vec![],
            body: Vec::new(),
            connection_close: false,
        };
        assert!(matches!(
            response_to_result(bare).unwrap_err(),
            InterfaceError::Throttled { .. }
        ));
        assert!(response_to_result(ParsedResponse {
            status: 429,
            headers: vec![("x-hds-issued".into(), "7".into())],
            body: Vec::new(),
            connection_close: false,
        })
        .unwrap_err()
        .eq(&InterfaceError::BudgetExhausted { issued: 7 }));
    }

    #[test]
    fn mid_response_death_is_never_retried() {
        // Regression (pipelined-FIFO desync): a server dribbling part of a
        // response and dying must fail the fetch terminally — retrying a
        // request the server already served would double-charge the site.
        use std::io::{Read as _, Write as _};
        use std::net::TcpListener;
        use std::sync::atomic::AtomicUsize;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let accepted_srv = Arc::clone(&accepted);
        let srv = std::thread::spawn(move || {
            // Serve exactly one connection: read the request, dribble a
            // partial response, die mid-body. The listener then drops, so
            // any retry attempt would surface as a different error.
            let (mut s, _) = listener.accept().unwrap();
            accepted_srv.fetch_add(1, Ordering::Relaxed);
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n")
                .unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b"only the start of the body").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            // Drop: FIN mid-body.
        });

        let t = HttpTransport::new(addr);
        let err = t.fetch("/search").unwrap_err();
        srv.join().unwrap();
        match &err {
            InterfaceError::Transport(msg) => {
                assert!(msg.contains("mid-response"), "got: {msg}");
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(!err.is_transient(), "mid-response death is terminal");
        assert_eq!(
            accepted.load(Ordering::Relaxed),
            1,
            "the request must not have been resubmitted"
        );
        assert_eq!(t.requests_sent(), 1);
    }

    #[test]
    fn stale_keep_alive_clean_close_still_retries() {
        // The good half of the retry-once heuristic must survive the
        // mid-response fix: a keep-alive connection the server idled out
        // *between* requests (zero response bytes) is retried on a fresh
        // connection, invisibly to the caller.
        use std::io::{Read as _, Write as _};
        use std::net::{Shutdown, TcpListener};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let srv = std::thread::spawn(move || {
            let page = |body: &str| {
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                )
            };
            // Connection 1: serve one response, then half-close (FIN) and
            // drain — the client's next request lands on a stale socket
            // and reads a clean EOF, never an RST.
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(page("first").as_bytes()).unwrap();
            s.shutdown(Shutdown::Write).unwrap();
            while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
            // Connection 2: the retry; serve it for real.
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut buf);
            s.write_all(page("second").as_bytes()).unwrap();
        });

        let t = HttpTransport::new(addr);
        assert_eq!(t.fetch("/a").unwrap(), "first");
        // Give the FIN time to arrive so the staleness is guaranteed.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(t.fetch("/b").unwrap(), "second", "retried transparently");
        srv.join().unwrap();
        assert_eq!(t.requests_sent(), 3, "two fetches, one retry");
    }
}
