//! The simulated wire between scraper and site.
//!
//! [`Transport`] abstracts "fetch this path, get a page". [`LocalSite`]
//! is the in-process server: it routes the request (anything off the
//! form's action 404s, like a real site), parses it with the site's
//! [`WebForm`], executes it on the backing
//! [`FormInterface`](hdsampler_model::FormInterface) (typically a
//! [`HiddenDb`](hdsampler_hidden_db::HiddenDb), which enforces top-k,
//! budgets and count noise), and renders the page. [`LatencyTransport`]
//! adds *virtual* per-request latency over per-connection clocks
//! ([`crate::aio`]) so time-to-insight experiments can report wall-clock
//! numbers without actually sleeping — and so overlapping requests are
//! billed like overlapping requests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hdsampler_model::{FormInterface, InterfaceError, Schema};

use crate::aio::{AsyncTransport, ConnId, FetchHandle, FetchPoll, VirtualWire};
use crate::form::WebForm;

/// A page fetcher.
pub trait Transport: Send + Sync {
    /// Fetch `path` (path + query string) and return the page body.
    fn fetch(&self, path: &str) -> Result<String, InterfaceError>;

    /// Close idle keep-alive connections (those with no outstanding work),
    /// releasing their sockets; returns how many were closed. The
    /// connections themselves stay: the next request on one reopens its
    /// socket. Drivers call this when a site finishes so its sockets do
    /// not stay open for the rest of the run. Virtual and in-process wires
    /// hold no OS resources per connection, so the default closes nothing.
    fn close_idle(&self) -> usize {
        0
    }

    /// Wait out a retry backoff of `ms` milliseconds on whatever clock
    /// this wire runs on. Real wires sleep; virtual wires advance the
    /// blocking face's connection clock instead, so backoff is *billed*
    /// (it delays later departures and raises the site's elapsed figure)
    /// without slowing the experiment down.
    fn backoff(&self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// A transport that can report the wall-clock time its traffic consumed —
/// *virtual* for simulated wires ([`LatencyTransport`]), *real* for TCP
/// ones ([`HttpTransport`](crate::httpc::HttpTransport)). The fleet driver
/// ([`crate::driver`]) only needs this figure, so it drives simulated and
/// live sites through one code path.
pub trait Clocked {
    /// Elapsed milliseconds attributable to this transport's traffic.
    fn elapsed_ms(&self) -> u64;
}

impl<T: Clocked + ?Sized> Clocked for &T {
    fn elapsed_ms(&self) -> u64 {
        (**self).elapsed_ms()
    }
}

impl<T: Clocked + ?Sized> Clocked for Arc<T> {
    fn elapsed_ms(&self) -> u64 {
        (**self).elapsed_ms()
    }
}

/// The in-process web site serving a hidden database as HTML.
#[derive(Debug)]
pub struct LocalSite<F> {
    backend: F,
    form: WebForm,
}

impl<F: FormInterface> LocalSite<F> {
    /// Serve `backend` at `/search`.
    pub fn new(backend: F, schema: Arc<Schema>) -> Self {
        LocalSite {
            backend,
            form: WebForm::new(schema, "/search"),
        }
    }

    /// The site's form definition (what a scraper would read off the
    /// landing page).
    pub fn form(&self) -> &WebForm {
        &self.form
    }

    /// The backing interface.
    pub fn backend(&self) -> &F {
        &self.backend
    }
}

impl<F: FormInterface> Transport for LocalSite<F> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        // Route first: only the form's action (and the landing page) is
        // served. A request off them (e.g. `/nosuchpage?make=Honda`) is a
        // 404, not a form parse.
        let route = path.split_once('?').map_or(path, |(p, _)| p);
        if route == "/" && self.form.action() != "/" {
            // The landing page: the self-describing form, the same markup a
            // live server's `/` serves — so schema discovery works
            // identically against in-process, HTTP and replayed sites.
            // The fingerprint advertised here keys persistent (L2) caches;
            // it folds in the backend's dataset digest, so editing the data
            // retires the old cache directory automatically.
            let fp = hdsampler_core::l2::SiteFingerprint::derive(
                self.form.schema(),
                self.backend.result_limit(),
                self.backend.supports_count(),
                self.backend.dataset_digest(),
            );
            return Ok(self.form.render_html_with_fingerprint(
                self.backend.result_limit(),
                self.backend.supports_count(),
                fp.as_str(),
            ));
        }
        if route != self.form.action() {
            return Err(InterfaceError::Transport(format!(
                "404 not found: `{route}` (this site serves `{}`)",
                self.form.action()
            )));
        }
        let query = self
            .form
            .parse_request_path(path)
            .map_err(|e| InterfaceError::SchemaMismatch(format!("400 bad request: {e}")))?;
        let response = self.backend.execute(&query)?;
        Ok(self
            .form
            .codec()
            .render_page(&response, self.backend.result_limit()))
    }
}

/// Decorator adding fixed virtual latency per fetch, billed per
/// connection.
///
/// Latency is *accounted*, not slept: [`LatencyTransport::virtual_elapsed_ms`]
/// returns what the wall clock would have shown — the way the paper's
/// "matter of minutes" claim is checked without a multi-minute benchmark.
/// Each connection has its own virtual clock; requests on one connection
/// serialize while requests on different connections overlap, so the
/// elapsed figure is the **max over connections**, never the sum over
/// fetches (10 concurrent 150 ms fetches cost 150 ms, not 1500 ms).
///
/// Two ways to ride a connection:
///
/// * blocking [`Transport::fetch`] rides one connection, opened on first
///   use, so its fetches serialize;
/// * the [`AsyncTransport`] face hands out explicit [`ConnId`]s with
///   non-blocking submit/poll/complete, so one thread can keep several
///   requests in flight.
#[derive(Debug)]
pub struct LatencyTransport<T> {
    inner: T,
    latency_ms: u64,
    /// Half-width of the per-request jitter band around `latency_ms`.
    jitter_ms: u64,
    /// State of the jitter RNG (a splitmix64 stream keyed off the seed).
    jitter_state: AtomicU64,
    wire: VirtualWire,
    charged_ms: AtomicU64,
}

impl<T: Transport> LatencyTransport<T> {
    /// Wrap `inner` with a fixed `latency_ms` per request.
    pub fn new(inner: T, latency_ms: u64) -> Self {
        Self::with_jitter(inner, latency_ms, 0, 0)
    }

    /// Wrap `inner` with per-request latency drawn uniformly from
    /// `latency_ms ± jitter_ms` (clamped to ≥ 1 ms), deterministically from
    /// `seed`. Heterogeneous fleets give every site its own base latency
    /// and jitter, so the concurrent driver's win is measured against
    /// realistic straggler sites rather than a lock-step wire.
    pub fn with_jitter(inner: T, latency_ms: u64, jitter_ms: u64, seed: u64) -> Self {
        LatencyTransport {
            inner,
            latency_ms,
            jitter_ms,
            jitter_state: AtomicU64::new(seed),
            wire: VirtualWire::default(),
            charged_ms: AtomicU64::new(0),
        }
    }

    /// The latency to bill for the next request: the fixed base, or a draw
    /// from the jitter band. Atomic counter + splitmix64 keeps draws
    /// deterministic in *aggregate* across threads (each request consumes
    /// exactly one stream position) without a lock.
    fn draw_latency_ms(&self) -> u64 {
        if self.jitter_ms == 0 {
            return self.latency_ms;
        }
        let n = self.jitter_state.fetch_add(1, Ordering::Relaxed);
        let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let span = 2 * self.jitter_ms + 1;
        (self.latency_ms + z % span)
            .saturating_sub(self.jitter_ms)
            .max(1)
    }

    /// Virtual wall-clock consumed so far: the maximum over all
    /// connections' clocks (overlapping requests overlap).
    pub fn virtual_elapsed_ms(&self) -> u64 {
        self.wire.elapsed()
    }

    /// Total latency charged across all fetches (the old serial
    /// accounting: sum over fetches). Useful as a cost figure; not a wall
    /// clock.
    pub fn total_charged_ms(&self) -> u64 {
        self.charged_ms.load(Ordering::Relaxed)
    }

    /// Number of virtual connections opened (the blocking face's one and
    /// explicit [`AsyncTransport::connect`] calls).
    pub fn connections(&self) -> usize {
        self.wire.connections()
    }

    /// Submitted fetches whose results have not yet been taken
    /// (completed or cancelled). A figure that grows without bound means
    /// some caller drops handles instead of cancelling them.
    pub fn pending_fetches(&self) -> usize {
        self.wire.pending()
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for LatencyTransport<T> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        let handle = self.submit(self.wire.blocking_conn(), path);
        self.wire.complete(handle)
    }

    fn backoff(&self, ms: u64) {
        self.wire.backoff(ms);
    }
}

impl<T: Transport> Clocked for LatencyTransport<T> {
    fn elapsed_ms(&self) -> u64 {
        self.virtual_elapsed_ms()
    }
}

impl<T: Transport> AsyncTransport for LatencyTransport<T> {
    fn connect(&self) -> ConnId {
        self.wire.connect()
    }

    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        let latency_ms = self.draw_latency_ms();
        self.charged_ms.fetch_add(latency_ms, Ordering::Relaxed);
        // The inner fetch is CPU work; only the wire is virtual. Executing
        // it eagerly keeps submit non-blocking in virtual time while the
        // result waits for the clock to catch up.
        self.wire.submit(conn, latency_ms, self.inner.fetch(path))
    }

    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        self.wire.poll(handle)
    }

    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        self.wire.complete(handle)
    }

    fn cancel(&self, handle: FetchHandle) {
        self.wire.cancel(handle);
    }

    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        self.wire.advance_to(conn, now_ms);
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        self.wire.elapsed()
    }
}

impl<T: Transport + ?Sized> Transport for &T {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        (**self).fetch(path)
    }
    fn close_idle(&self) -> usize {
        (**self).close_idle()
    }
    fn backoff(&self, ms: u64) {
        (**self).backoff(ms)
    }
}

impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        (**self).fetch(path)
    }
    fn close_idle(&self) -> usize {
        (**self).close_idle()
    }
    fn backoff(&self, ms: u64) {
        (**self).backoff(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_model::{Attribute, SchemaBuilder, Tuple};

    fn site() -> LocalSite<HiddenDb> {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "Honda"]).unwrap())
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema)).result_limit(1);
        for v in [0u16, 0, 1] {
            b.push(&Tuple::new(&schema, vec![v], vec![]).unwrap())
                .unwrap();
        }
        LocalSite::new(b.finish(), schema)
    }

    #[test]
    fn serves_pages() {
        let site = site();
        let page = site.fetch("/search?make=Honda").unwrap();
        assert!(page.contains("<table class=\"results\">"));
        assert!(page.contains("Honda"));
        let overflowing = site.fetch("/search?make=Toyota").unwrap();
        assert!(overflowing.contains("class=\"overflow\""));
    }

    #[test]
    fn default_form_submission_is_served() {
        // Regression: the site's own rendered form submits `make=` for the
        // "any" default; a browser pressing Search untouched must get the
        // unconstrained results page, not a 400.
        let site = site();
        let page = site.fetch("/search?make=").unwrap();
        assert!(page.contains("<table class=\"results\">"));
        assert!(page.contains("class=\"overflow\""), "root query overflows");
    }

    #[test]
    fn bad_requests_are_schema_mismatches() {
        let site = site();
        let err = site.fetch("/search?bogus=1").unwrap_err();
        assert!(matches!(err, InterfaceError::SchemaMismatch(msg) if msg.contains("400")));
    }

    #[test]
    fn landing_page_serves_the_discoverable_form() {
        let site = site();
        let page = site.fetch("/").unwrap();
        let form = crate::scrape::scrape_form_page(&page).unwrap();
        assert_eq!(&form.schema, site.form().schema().as_ref());
        assert_eq!(form.action, "/search");
        assert_eq!(form.k, 1);
        assert!(!form.supports_count);
    }

    #[test]
    fn requests_off_the_form_action_are_404() {
        let site = site();
        // A valid query string does not rescue a wrong path.
        for path in ["/nosuchpage?make=Honda", "/search/extra", "/Search"] {
            let err = site.fetch(path).unwrap_err();
            assert!(
                matches!(&err, InterfaceError::Transport(msg) if msg.contains("404")),
                "path {path:?} must 404, got {err:?}"
            );
        }
        // The bare action (no query string) is still served.
        assert!(site.fetch("/search").is_ok());
    }

    #[test]
    fn latency_accumulates_virtually() {
        let site = site();
        let t = LatencyTransport::new(&site, 150);
        let before = std::time::Instant::now();
        for _ in 0..10 {
            t.fetch("/search?make=Honda").unwrap();
        }
        // The blocking face rides one connection: fetches serialize.
        assert_eq!(t.virtual_elapsed_ms(), 1_500);
        assert_eq!(t.total_charged_ms(), 1_500);
        assert_eq!(t.connections(), 1);
        assert!(
            before.elapsed().as_millis() < 1_000,
            "must not actually sleep"
        );
    }

    #[test]
    fn async_face_pipelines_on_one_connection() {
        let site = site();
        let t = LatencyTransport::new(&site, 100);
        let conn = t.connect();
        let first = t.submit(conn, "/search?make=Honda");
        let second = t.submit(conn, "/search?make=Toyota");
        assert_eq!(first.ready_at_ms(), 100);
        assert_eq!(second.ready_at_ms(), 200, "same connection serializes");

        // Nothing has advanced the clock: both are pending.
        let first = match t.poll(first) {
            FetchPoll::Pending(h) => h,
            FetchPoll::Ready(_) => panic!("clock has not advanced"),
        };
        // Completing the *second* advances the clock past the first.
        let page2 = t.complete(second).unwrap();
        assert!(page2.contains("overflow"));
        match t.poll(first) {
            FetchPoll::Ready(Ok(page1)) => assert!(page1.contains("Honda")),
            other => panic!("first fetch must now be ready, got {other:?}"),
        }
        assert_eq!(t.virtual_elapsed_ms(), 200);
    }

    #[test]
    fn async_connections_overlap() {
        let site = site();
        let t = LatencyTransport::new(&site, 150);
        let handles: Vec<_> = (0..10)
            .map(|_| {
                let conn = t.connect();
                t.submit(conn, "/search?make=Honda")
            })
            .collect();
        for h in handles {
            t.complete(h).unwrap();
        }
        assert_eq!(t.virtual_elapsed_ms(), 150, "ten connections, one RTT");
    }

    #[test]
    fn cancel_releases_buffered_results() {
        let site = site();
        let t = LatencyTransport::new(&site, 100);
        let conn = t.connect();
        let keep = t.submit(conn, "/search?make=Honda");
        let abandon = t.submit(conn, "/search?make=Toyota");
        assert_eq!(t.pending_fetches(), 2);
        t.cancel(abandon);
        assert_eq!(t.pending_fetches(), 1, "cancel frees the buffered page");
        t.complete(keep).unwrap();
        assert_eq!(t.pending_fetches(), 0);
        // Cancelling does not un-send: the connection time stays occupied.
        assert_eq!(t.total_charged_ms(), 200);
    }

    #[test]
    fn jitter_stays_in_band_and_is_deterministic() {
        let run = |seed: u64| {
            let site = site();
            let t = LatencyTransport::with_jitter(&site, 100, 30, seed);
            let mut charges = Vec::new();
            let mut prev_total = 0;
            for _ in 0..50 {
                t.fetch("/search?make=Honda").unwrap();
                let total = t.total_charged_ms();
                charges.push(total - prev_total);
                prev_total = total;
            }
            charges
        };
        let a = run(7);
        assert!(a.iter().all(|&ms| (70..=130).contains(&ms)), "{a:?}");
        assert!(
            a.iter().collect::<std::collections::HashSet<_>>().len() > 5,
            "jitter must actually vary: {a:?}"
        );
        assert_eq!(a, run(7), "same seed, same draws");
        assert_ne!(a, run(8), "different seed, different draws");
        // Zero jitter is the old fixed-latency behaviour.
        let site = site();
        let t = LatencyTransport::with_jitter(&site, 100, 0, 9);
        t.fetch("/search?make=Honda").unwrap();
        assert_eq!(t.total_charged_ms(), 100);
    }

    #[test]
    fn async_face_propagates_errors() {
        let site = site();
        let t = LatencyTransport::new(&site, 50);
        let conn = t.connect();
        let h = t.submit(conn, "/nosuchpage");
        let err = t.complete(h).unwrap_err();
        assert!(matches!(err, InterfaceError::Transport(msg) if msg.contains("404")));
    }
}
