//! # hdsampler-server
//!
//! A real HTTP front door for a hidden database's web form — the
//! deployment half the original demo ran on Apache + PHP (§3.5), rebuilt
//! dependency-free on `std::net`.
//!
//! In-process, every byte stays in memory: `LocalSite` is a function call
//! and the one virtual wire, `ChaosTransport`, bills virtual clocks. This
//! crate puts the form behind a real socket: a hand-rolled HTTP/1.1
//! server (request parsing with hard limits, keep-alive, every complete
//! body framed by `Content-Length`, a chunked stream only for
//! `/events`, a readiness-loop front door with graceful shutdown)
//! that mounts any [`SiteBehavior`] — in particular any
//! [`LocalSite`](hdsampler_webform::LocalSite) — as real GET endpoints:
//!
//! * `/` — the rendered form (the demo's Figure 3 landing page);
//! * the form action (e.g. `/search?make=Honda`) — results pages, with
//!   200/400/404 semantics *identical* to `WebForm::parse_request_path`
//!   (the mounting delegates to `LocalSite::fetch`, so parity holds by
//!   construction);
//! * budget exhaustion — `429` with machine-readable headers the
//!   [`HttpTransport`](hdsampler_webform::HttpTransport) client maps back
//!   onto `InterfaceError::BudgetExhausted`.
//!
//! The unmodified walker/driver/session stack samples a served site
//! end-to-end over loopback TCP via `HttpTransport`; `hdsampler serve
//! local:<dataset>` plus `hdsampler sample http://<addr>` is the
//! two-terminal quickstart.
//!
//! * [`http`] — request parsing, response writing, limits;
//! * [`site`] — [`SiteBehavior`] and the `LocalSite` mounting;
//! * [`adversary`] — [`Adversary`], seeded fault injection (throttles,
//!   transient 5xx, dropped connections, slow starts, count noise) in
//!   front of any mounted site;
//! * [`events`] — the [`EventHub`] broadcast behind `GET /events`
//!   (chunked SSE) and the [`BridgeSink`] that mirrors a local sampling
//!   run's accepted samples onto it;
//! * [`reactor`] — the one front door: readiness loops (one per core;
//!   epoll on Linux, `poll(2)` on other unix hosts) multiplexing
//!   resumable per-connection [`ConnMachine`]s, with every wait —
//!   idle and slowloris deadlines, held (delayed) responses, admission
//!   rejects, `/events` watcher ticks — a deadline on one timer heap;
//! * [`server`] — configuration, request semantics, graceful shutdown,
//!   live [`ServerStats`] (per-route counters,
//!   bytes in/out, a per-request ring log with echoed `x-hds-trace`
//!   ids), and the built-in `GET /metrics` Prometheus exposition.

pub mod adversary;
pub mod events;
pub mod http;
pub mod reactor;
pub mod server;
pub mod site;

pub use adversary::Adversary;
pub use events::{BridgeSink, EventHub};
pub use http::{parse_request, write_response, HttpVersion, Request, RequestError, Response};
pub use reactor::{ConnMachine, WriteProgress};
pub use server::{
    render_server_metrics, HttpServer, RequestLogEntry, ServerConfig, ServerHandle, ServerStats,
    REQUEST_LOG_CAP,
};
pub use site::{SiteBehavior, ERROR_HEADER, ISSUED_HEADER};
