//! # hdsampler-webform
//!
//! The simulated web layer between HDSampler and a hidden database.
//!
//! The original demo ran against live Google Base over HTTP (Apache + PHP,
//! §3.5); in this reproduction the wire is simulated but the *pipeline* is
//! real: every query is URL-encoded into a GET request
//! ([`urlenc`]), the "site" renders an HTML results page ([`render`]) —
//! count banner, overflow notice, result table — and the sampler-side
//! adapter scrapes that page back into typed rows ([`scrape`]) with a
//! hand-written extractor. Values therefore survive a full
//! string-typed round trip exactly as a real scraper's would.
//!
//! * [`form`] — the `<form>` definition a site derives from its schema
//!   (the demo's Figure 3 attribute-settings page), and its
//!   [`PageCodec`]: the request-path, page-render and page-scrape tables
//!   built once per schema;
//! * [`urlenc`] — percent/query-string encoding (hand-rolled, no deps);
//! * [`render`] — server-side page rendering ([`PageCodec::render_page`]);
//! * [`scrape`] — client-side page scraping ([`PageCodec::scrape_page`],
//!   one forward pass, and its sampler mode
//!   [`PageCodec::scrape_for_sampler`]) and schema discovery off a form
//!   page;
//! * [`transport`] — the wire: a [`Transport`] trait, the in-process
//!   [`LocalSite`] server, and a virtual-latency decorator for
//!   time-to-insight experiments;
//! * [`aio`] — the non-blocking wire: poll/completion fetches over
//!   per-connection virtual clocks, so overlapping requests are billed as
//!   overlapping (elapsed = max over connections, not sum over fetches);
//! * [`adapter`] — [`WebFormInterface`], a full
//!   [`FormInterface`](hdsampler_model::FormInterface) over HTML, with a
//!   non-blocking execute path over any [`AsyncTransport`];
//! * [`httpc`] — [`HttpTransport`], the *real* wire: a dependency-free
//!   HTTP/1.1 client on `std::net::TcpStream` implementing both transport
//!   faces, so the same sampler stack walks a live `hdsampler serve`
//!   front door over loopback or a network;
//! * [`driver`] — the fleet vocabulary: [`SiteTask`] (one site's
//!   scraper stack), [`FleetConfig`] (sizes and per-walker seeds) and
//!   the [`SiteReport`]/[`FleetReport`] outcomes;
//! * `coop` (private) — the one engine behind [`RunPlan::run`]: a single
//!   OS thread multiplexing S sites × W resumable walk machines over
//!   explicit connections, pipelining hundreds of in-flight submissions
//!   with per-site history caches, budgets, retries and work-stealing;
//! * [`reactor`] — the std-only epoll readiness wrapper both halves of
//!   the real wire multiplex on: the client's single-`epoll_wait`
//!   completion path and the server's event-driven serve mode;
//! * [`locator`] — [`SiteLocator`], the one-string site grammar
//!   (`local:…`, `http://…`, `replay:…`);
//! * [`connect`] — the [`ConnectorRegistry`] resolving locators to ready
//!   [`SiteTask`]s via scrape-based schema discovery off each site's `/`;
//! * [`replay`] — [`RecordingTransport`] writing every exchange to a
//!   JSONL tape, and [`ReplaySite`] serving one back byte-identically
//!   with no server at all;
//! * [`telemetry`] — trace journaling (JSONL `--trace` journals), the
//!   [`WireSampleEvent`] format carried by the server's `/events` SSE
//!   stream, its dependency-free chunked-transfer client, and the
//!   per-stage latency [`TraceReport`] behind `trace report`;
//! * [`plan`] — [`RunPlan`], the only front door: one builder
//!   (`target → walkers → driver → steal → attach(sink)`) that runs the
//!   cooperative engine over simulated or live sites, streaming every
//!   accepted sample into attached
//!   [`SampleSink`](hdsampler_core::SampleSink)s and returning one
//!   [`RunReport`] whose per-site [`SiteReport`]s carry each walker's
//!   sample keys.

pub mod adapter;
pub mod aio;
pub mod chaos;
pub mod connect;
mod coop;
pub mod driver;
pub mod form;
pub mod httpc;
pub mod locator;
#[cfg(test)]
mod oracle;
pub mod plan;
pub mod reactor;
pub mod render;
pub mod replay;
pub mod scrape;
mod shortest;
pub mod telemetry;
pub mod transport;
pub mod urlenc;

pub use adapter::{QueryHandle, QueryPoll, WebFormInterface};
pub use aio::{AsyncTransport, ConnId, FetchHandle, FetchPoll};
pub use chaos::{ChaosCounters, ChaosSpec, ChaosTransport, Decision, Fault, RetryPolicy};
pub use connect::{BoxTransport, ConnectOptions, Connector, ConnectorRegistry, LocalParams};
pub use driver::{FleetConfig, FleetReport, SiteReport, SiteTask};
pub use form::{PageCodec, WebForm};
pub use httpc::HttpTransport;
pub use locator::SiteLocator;
pub use plan::{Driver, RunPlan, RunReport};
pub use reactor::{reactor_supported, Epoll, Interest, ReadyEvent};
pub use replay::{RecordingTransport, ReplaySite, TapeEntry};
pub use scrape::{scrape_form_page, DiscoveredForm};
pub use telemetry::{
    read_journal, summarize, watch_events, write_journal, TraceReport, WireSampleEvent,
};
pub use transport::{Clocked, LatencyTransport, LocalSite, Transport};
