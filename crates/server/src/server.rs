//! The TCP front door: configuration, request semantics, live stats and
//! graceful shutdown around the readiness loops of [`crate::reactor`] —
//! plus the built-in telemetry plane every served site gets for free:
//! `GET /metrics` (Prometheus text exposition of [`ServerStats`] and an
//! optional attached [`MetricsRegistry`]) and `GET /events` (a chunked
//! SSE stream of the server's [`EventHub`]).

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hdsampler_core::{MetricsRegistry, TraceEvent};

use crate::events::EventHub;
use crate::http::{Request, Response};
use crate::site::SiteBehavior;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the chosen one).
    pub addr: String,
    /// Readiness loops to run; 0 means one per available core.
    pub reactor_threads: usize,
    /// Idle time after which a keep-alive connection is closed; also the
    /// per-request read deadline (slowloris guard).
    pub keep_alive_timeout: Duration,
    /// Admission cap: connections past this many concurrently open are
    /// answered `503` + `Retry-After` and closed instead of served.
    /// `0` disables the cap.
    pub max_conns: usize,
    /// Extra metrics appended to `/metrics` after the server's own
    /// counters — a registry handle shared with the embedding process
    /// (e.g. a sampling run's [`MetricsSink`](hdsampler_core::MetricsSink)
    /// aggregation). `None` serves [`ServerStats`] alone.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            reactor_threads: 0,
            keep_alive_timeout: Duration::from_secs(5),
            max_conns: 0,
            metrics: None,
        }
    }
}

/// How many per-request log entries the server retains (a ring: old
/// entries fall off the front).
pub const REQUEST_LOG_CAP: usize = 1024;

/// One served request, as recorded in the server's ring log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestLogEntry {
    /// Server-wide request ordinal (1-based).
    pub seq: u64,
    /// Request target (path + query).
    pub target: String,
    /// The client's `x-hds-trace` id, empty if unstamped.
    pub trace: String,
    /// Response status written.
    pub status: u16,
}

/// Monotonic counters kept by a running server (plus the one gauge,
/// `open_connections`), driven by the reactor's readiness loops.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) responses_ok: AtomicU64,
    pub(crate) responses_client_error: AtomicU64,
    pub(crate) responses_server_error: AtomicU64,
    pub(crate) connections_dropped: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) requests_landing: AtomicU64,
    pub(crate) requests_search: AtomicU64,
    pub(crate) requests_metrics: AtomicU64,
    pub(crate) requests_events: AtomicU64,
    pub(crate) requests_other: AtomicU64,
    /// Poller wait returns across all reactor loops.
    pub(crate) reactor_wakeups: AtomicU64,
    /// Readiness events those wakeups delivered (ready-set sizes summed).
    pub(crate) reactor_ready_events: AtomicU64,
    /// Connections admitted by reactor loops.
    pub(crate) reactor_accepts: AtomicU64,
    /// Connections turned away at the admission cap (`503`).
    pub(crate) admission_rejects: AtomicU64,
    /// Reactor deadline timers that fired (idle close, slowloris 408,
    /// flush-window expiry, held-response release, reject linger,
    /// `/events` watcher ticks).
    pub(crate) timers_fired: AtomicU64,
    /// Admitted connections currently open (gauge: incremented on
    /// accept, decremented on close).
    pub(crate) open_connections: AtomicU64,
    /// `/events` watchers shed for not reading.
    pub(crate) events_shed: AtomicU64,
    log: Mutex<VecDeque<RequestLogEntry>>,
}

impl StatsInner {
    /// Count one written response under its status class.
    pub(crate) fn count_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn record_request(&self, seq: u64, target: &str, trace: &str, status: u16) {
        let mut log = self.log.lock().expect("request log lock");
        if log.len() >= REQUEST_LOG_CAP {
            log.pop_front();
        }
        log.push_back(RequestLogEntry {
            seq,
            target: target.to_string(),
            trace: trace.to_string(),
            status,
        });
    }
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// TCP connections accepted.
    pub connections: u64,
    /// Requests parsed off those connections.
    pub requests: u64,
    /// 2xx responses written.
    pub responses_ok: u64,
    /// 4xx responses written.
    pub responses_client_error: u64,
    /// 5xx responses written.
    pub responses_server_error: u64,
    /// Connections severed without a response (injected drops).
    pub connections_dropped: u64,
    /// Response bytes written (headers + bodies + chunk framing).
    pub bytes_out: u64,
    /// Request bytes read off accepted connections.
    pub bytes_in: u64,
    /// Requests for `/` (the rendered form landing page).
    pub requests_landing: u64,
    /// Requests for the form action (`/search…`).
    pub requests_search: u64,
    /// Requests for `/metrics`.
    pub requests_metrics: u64,
    /// Requests for `/events`.
    pub requests_events: u64,
    /// Requests for any other target.
    pub requests_other: u64,
    /// Poller wait returns across all reactor loops.
    pub reactor_wakeups: u64,
    /// Readiness events delivered by those wakeups.
    pub reactor_ready_events: u64,
    /// Connections admitted by reactor loops (rejects excluded).
    pub reactor_accepts: u64,
    /// Connections turned away at the admission cap (`503` +
    /// `Retry-After`; see [`ServerConfig::max_conns`]).
    pub admission_rejects: u64,
    /// Reactor deadline timers fired (idle close / slowloris / flush cap /
    /// held-response release / reject linger / `/events` watcher ticks).
    pub timers_fired: u64,
    /// Admitted connections open right now (gauge).
    pub open_connections: u64,
    /// `/events` watchers shed for leaving more than 4 MiB unwritten for
    /// a whole 100 ms tick: they had stopped reading.
    pub events_shed: u64,
}

/// The HTTP/1.1 server: binds a listener and serves a mounted site.
pub struct HttpServer;

/// Listen backlog sized for connection storms. `TcpListener::bind`
/// hardcodes 128, which a C10K dial burst overflows in one scheduling
/// quantum — the kernel then drops SYNs and every affected client stalls
/// a full retransmission timeout (~1 s) before the connection lands. The
/// kernel clamps this to `net.core.somaxconn`.
const ACCEPT_BACKLOG: i32 = 4096;

/// Bind a listener with [`ACCEPT_BACKLOG`]. On Linux the socket is built
/// by hand (std offers no backlog knob); elsewhere — and for any address
/// that is not plain IPv4 — this falls back to `TcpListener::bind`.
fn bind_listener(addr: &str) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        use std::net::ToSocketAddrs;
        let parsed = addr.to_socket_addrs()?.find(|a| a.is_ipv4());
        if let Some(SocketAddr::V4(v4)) = parsed {
            return listen_sys::bind_v4(v4, ACCEPT_BACKLOG);
        }
    }
    TcpListener::bind(addr)
}

/// Raw socket/bind/listen syscalls: the only way to pick a listen
/// backlog with std alone. Mirrors the FFI style of
/// [`hdsampler_webform::reactor`].
#[cfg(target_os = "linux")]
mod listen_sys {
    use std::io;
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::fd::{FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_void};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;

    /// `struct sockaddr_in`: family, then port and address in network
    /// byte order, padded to the 16 bytes `bind(2)` expects.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    pub fn bind_v4(addr: SocketAddrV4, backlog: c_int) -> io::Result<TcpListener> {
        // SAFETY: plain syscalls on an fd we own; `fd` is wrapped in
        // `OwnedFd` immediately so every error path closes it.
        unsafe {
            let raw = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            let fd = OwnedFd::from_raw_fd(raw);
            let one: c_int = 1;
            if setsockopt(
                raw,
                SOL_SOCKET,
                SO_REUSEADDR,
                &one as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            ) < 0
            {
                return Err(io::Error::last_os_error());
            }
            let sa = SockaddrIn {
                family: AF_INET as u16,
                port_be: addr.port().to_be(),
                addr_be: u32::from(*addr.ip()).to_be(),
                zero: [0; 8],
            };
            if bind(raw, &sa, std::mem::size_of::<SockaddrIn>() as u32) < 0 {
                return Err(io::Error::last_os_error());
            }
            if listen(raw, backlog) < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(TcpListener::from(fd))
        }
    }
}

impl HttpServer {
    /// Bind `cfg.addr` and serve `site` until [`ServerHandle::shutdown`].
    pub fn serve<S: SiteBehavior + 'static>(
        cfg: ServerConfig,
        site: Arc<S>,
    ) -> std::io::Result<ServerHandle> {
        let listener = bind_listener(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let hub = Arc::new(EventHub::new());

        let acceptor = crate::reactor::spawn(
            listener,
            site,
            Arc::clone(&stats),
            Arc::clone(&stop),
            Arc::clone(&hub),
            cfg,
        )?;
        Ok(ServerHandle {
            addr,
            stop,
            stats,
            hub,
            acceptor: Some(acceptor),
        })
    }
}

/// Handle to a running server: the bound address, live stats, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    hub: Arc<EventHub>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        snapshot_stats(&self.stats)
    }

    /// The server's event hub. The embedding process publishes into it
    /// (e.g. via [`BridgeSink`](crate::events::BridgeSink)) and every
    /// `/events` watcher receives the stream.
    pub fn events(&self) -> Arc<EventHub> {
        Arc::clone(&self.hub)
    }

    /// Snapshot of the per-request ring log (most recent
    /// [`REQUEST_LOG_CAP`]-ish entries, oldest first).
    pub fn request_log(&self) -> Vec<RequestLogEntry> {
        self.stats
            .log
            .lock()
            .expect("request log lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Graceful shutdown: stop accepting, finish every in-flight exchange
    /// (held responses included), close idle keep-alive connections,
    /// join all threads. Returns the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The loops notice the flag within `IDLE_POLL`; a throwaway
        // connection wakes one of them at once.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The reactor loops' longest sleep between wakeups (how soon they see
/// the stop flag); also the tick at which `/events` watchers get frames.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(100);

/// A routed answer and whether the connection stays open after it.
pub(crate) struct Reply {
    pub(crate) resp: Response,
    pub(crate) keep_alive: bool,
}

/// What one parsed request resolved to; the reactor acts on it by
/// queueing bytes into the connection's machine.
pub(crate) enum Handled {
    /// Write this reply — after `resp.delay`, or sever instead when
    /// `resp.drop_connection` — then keep or close the connection.
    Response(Reply),
    /// `/events`: the connection becomes a watcher of the event hub.
    EventStream,
}

/// Count, route, and answer one parsed request: the request semantics
/// (sequence counters, per-route counters, the body-bearing
/// 400-and-close anti-smuggling rule, telemetry routes, trace-id echo,
/// request log and event publication).
pub(crate) fn handle_request(
    req: &Request,
    site: &dyn SiteBehavior,
    stats: &StatsInner,
    stop: &AtomicBool,
    hub: &EventHub,
    cfg: &ServerConfig,
) -> Handled {
    let seq = stats.requests.fetch_add(1, Ordering::Relaxed) + 1;
    let route_counter = match route_label(&req.target) {
        "landing" => &stats.requests_landing,
        "search" => &stats.requests_search,
        "metrics" => &stats.requests_metrics,
        "events" => &stats.requests_events,
        _ => &stats.requests_other,
    };
    route_counter.fetch_add(1, Ordering::Relaxed);
    let trace = req.header("x-hds-trace").unwrap_or("").to_string();

    // A body-bearing request would desynchronize the framing: this
    // server never reads bodies, so the unread bytes would be parsed
    // as the next request (request smuggling). Refuse AND close — a
    // keep-alive 400 here would serve the body as a request.
    let has_body = req
        .header("content-length")
        .is_some_and(|v| v.trim() != "0")
        || req.header("transfer-encoding").is_some();
    if has_body {
        return Handled::Response(Reply {
            resp: Response::text(
                400,
                "Bad Request",
                "400 request bodies are not accepted".into(),
            ),
            keep_alive: false,
        });
    }

    let keep_alive = req.wants_keep_alive() && !stop.load(Ordering::SeqCst);

    // The telemetry plane answers before the mounted site sees the
    // request. `/events` takes over the whole connection: it streams
    // the hub until the server stops, the watcher hangs up, or the
    // watcher stops reading and is shed.
    if req.method == "GET" && route_label(&req.target) == "events" {
        stats.responses_ok.fetch_add(1, Ordering::Relaxed);
        stats.record_request(seq, &req.target, &trace, 200);
        publish_request_event(hub, seq, &req.target, &trace, 200);
        return Handled::EventStream;
    }
    let mut resp = if req.method == "GET" && route_label(&req.target) == "metrics" {
        Response::text(
            200,
            "OK",
            render_server_metrics(&snapshot_stats(stats), cfg.metrics.as_ref()),
        )
    } else {
        route(site, req)
    };
    if resp.drop_connection {
        // Injected drop: sever without writing a byte — the peer sees
        // the close as a reset/EOF mid-exchange and must classify it
        // as transient.
        stats.connections_dropped.fetch_add(1, Ordering::Relaxed);
        return Handled::Response(Reply {
            resp,
            keep_alive: false,
        });
    }
    // Echo the client's span id so both sides of the wire agree on
    // the request's identity, then log and broadcast the exchange.
    if !trace.is_empty() {
        resp.extra_headers
            .push(("x-hds-trace".into(), trace.clone()));
    }
    stats.record_request(seq, &req.target, &trace, resp.status);
    publish_request_event(hub, seq, &req.target, &trace, resp.status);
    Handled::Response(Reply { resp, keep_alive })
}

/// Coarse route class of a request target (for per-route counters).
fn route_label(target: &str) -> &'static str {
    let path = target.split('?').next().unwrap_or("");
    match path {
        "/" => "landing",
        "/metrics" => "metrics",
        "/events" => "events",
        p if p.starts_with("/search") => "search",
        _ => "other",
    }
}

/// Read the counters without a [`ServerHandle`] (the `/metrics` route
/// runs inside a serve loop).
fn snapshot_stats(stats: &StatsInner) -> ServerStats {
    ServerStats {
        connections: stats.connections.load(Ordering::Relaxed),
        requests: stats.requests.load(Ordering::Relaxed),
        responses_ok: stats.responses_ok.load(Ordering::Relaxed),
        responses_client_error: stats.responses_client_error.load(Ordering::Relaxed),
        responses_server_error: stats.responses_server_error.load(Ordering::Relaxed),
        connections_dropped: stats.connections_dropped.load(Ordering::Relaxed),
        bytes_out: stats.bytes_out.load(Ordering::Relaxed),
        bytes_in: stats.bytes_in.load(Ordering::Relaxed),
        requests_landing: stats.requests_landing.load(Ordering::Relaxed),
        requests_search: stats.requests_search.load(Ordering::Relaxed),
        requests_metrics: stats.requests_metrics.load(Ordering::Relaxed),
        requests_events: stats.requests_events.load(Ordering::Relaxed),
        requests_other: stats.requests_other.load(Ordering::Relaxed),
        reactor_wakeups: stats.reactor_wakeups.load(Ordering::Relaxed),
        reactor_ready_events: stats.reactor_ready_events.load(Ordering::Relaxed),
        reactor_accepts: stats.reactor_accepts.load(Ordering::Relaxed),
        admission_rejects: stats.admission_rejects.load(Ordering::Relaxed),
        timers_fired: stats.timers_fired.load(Ordering::Relaxed),
        open_connections: stats.open_connections.load(Ordering::Relaxed),
        events_shed: stats.events_shed.load(Ordering::Relaxed),
    }
}

/// Broadcast one served request as a `kind: "request"` trace event.
fn publish_request_event(hub: &EventHub, seq: u64, target: &str, trace: &str, status: u16) {
    if hub.subscribers() == 0 {
        return;
    }
    hub.publish_trace(&TraceEvent {
        kind: "request".into(),
        detail: target.into(),
        tag: trace.into(),
        seq,
        code: u64::from(status),
        ..TraceEvent::default()
    });
}

/// Render [`ServerStats`] (and an optional attached registry) in
/// Prometheus text exposition format — the `GET /metrics` body. Every
/// line parses back through
/// [`parse_exposition`](hdsampler_core::parse_exposition).
pub fn render_server_metrics(stats: &ServerStats, registry: Option<&MetricsRegistry>) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, value: u64| {
        out.push_str(&format!(
            "# TYPE {} counter\n{name} {value}\n",
            name.split('{').next().unwrap_or(name)
        ));
    };
    counter("hds_server_connections_total", stats.connections);
    counter("hds_server_requests_total", stats.requests);
    counter(
        "hds_server_connections_dropped_total",
        stats.connections_dropped,
    );
    counter("hds_server_bytes_out_total", stats.bytes_out);
    counter("hds_server_bytes_in_total", stats.bytes_in);
    counter("hds_server_reactor_wakeups_total", stats.reactor_wakeups);
    counter(
        "hds_server_reactor_ready_events_total",
        stats.reactor_ready_events,
    );
    counter("hds_server_reactor_accepts_total", stats.reactor_accepts);
    counter(
        "hds_server_admission_rejects_total",
        stats.admission_rejects,
    );
    counter("hds_server_timers_fired_total", stats.timers_fired);
    counter("hds_server_events_shed_total", stats.events_shed);
    out.push_str(&format!(
        "# TYPE hds_server_open_connections gauge\nhds_server_open_connections {}\n",
        stats.open_connections
    ));
    out.push_str("# TYPE hds_server_responses_total counter\n");
    out.push_str(&format!(
        "hds_server_responses_total{{class=\"ok\"}} {}\n",
        stats.responses_ok
    ));
    out.push_str(&format!(
        "hds_server_responses_total{{class=\"client_error\"}} {}\n",
        stats.responses_client_error
    ));
    out.push_str(&format!(
        "hds_server_responses_total{{class=\"server_error\"}} {}\n",
        stats.responses_server_error
    ));
    out.push_str("# TYPE hds_server_route_requests_total counter\n");
    for (route, value) in [
        ("events", stats.requests_events),
        ("landing", stats.requests_landing),
        ("metrics", stats.requests_metrics),
        ("other", stats.requests_other),
        ("search", stats.requests_search),
    ] {
        out.push_str(&format!(
            "hds_server_route_requests_total{{route=\"{route}\"}} {value}\n"
        ));
    }
    if let Some(registry) = registry {
        out.push_str(&registry.render());
    }
    out
}

/// Method gate in front of the site.
fn route(site: &dyn SiteBehavior, req: &Request) -> Response {
    if req.method != "GET" {
        let mut resp = Response::text(
            405,
            "Method Not Allowed",
            format!("405 method `{}` not allowed (GET only)", req.method),
        );
        resp.extra_headers.push(("Allow".into(), "GET".into()));
        return resp;
    }
    site.get(&req.target)
}
