//! The simulated wire between scraper and site.
//!
//! [`Transport`] abstracts "fetch this path, get a page". [`LocalSite`]
//! is the in-process server: it routes the request (anything off the
//! form's action 404s, like a real site), parses it with the site's
//! [`WebForm`], executes it on the backing [`FormInterface`] (typically a
//! [`HiddenDb`](hdsampler_hidden_db::HiddenDb), which enforces top-k,
//! budgets and count noise), and renders the page. The one virtual wire
//! in front of a simulated site is [`ChaosTransport`]: it bills *virtual*
//! service time per request on per-connection clocks ([`crate::aio`]) and
//! injects whatever faults its [`ChaosSpec`] schedules. [`LatencyTransport`]
//! builds the fault-free wire (fixed latency, optionally jittered), so
//! time-to-insight experiments report wall-clock numbers without actually
//! sleeping — and overlapping requests are billed like overlapping
//! requests.

use std::sync::Arc;

use hdsampler_model::{FormInterface, InterfaceError, Schema};

use crate::chaos::{ChaosSpec, ChaosTransport};
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
/// *virtual* for simulated wires ([`ChaosTransport`]), *real* for TCP
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

/// The plain virtual wire: constructors for a [`ChaosTransport`] whose
/// [`ChaosSpec`] injects no fault.
///
/// Latency is *accounted*, not slept: the wire's elapsed figure is what
/// the wall clock would have shown — the way the paper's "matter of
/// minutes" claim is checked without a multi-minute benchmark. Requests
/// on one connection serialize and requests on different connections
/// overlap, so 10 concurrent 150 ms fetches cost 150 ms, not 1500 ms
/// (see [`crate::aio`]).
pub enum LatencyTransport {}

impl LatencyTransport {
    /// Wrap `inner` with a fixed `latency_ms` per request (at least 1 ms).
    // Named for the wire it builds; `LatencyTransport` itself is never a
    // value, so `new` cannot return `Self`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<T: Transport>(inner: T, latency_ms: u64) -> ChaosTransport<T> {
        Self::with_jitter(inner, latency_ms, 0, 0)
    }

    /// Wrap `inner` with `latency_ms` plus 0..=`jitter_ms` extra per
    /// request, drawn deterministically from `seed` by the chaos jitter
    /// rule ([`ChaosSpec::decide`]).
    pub fn with_jitter<T: Transport>(
        inner: T,
        latency_ms: u64,
        jitter_ms: u64,
        seed: u64,
    ) -> ChaosTransport<T> {
        ChaosTransport::new(
            inner,
            ChaosSpec {
                seed,
                latency_ms,
                jitter_ms,
                ..ChaosSpec::default()
            },
        )
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
    use crate::aio::{AsyncTransport, FetchPoll};
    use crate::chaos::ChaosCounters;
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
        assert_eq!(t.connections(), 1);
        assert_eq!(t.counters(), ChaosCounters::default(), "no fault injected");
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
    fn jitter_stays_in_band_and_is_deterministic() {
        let run = |seed: u64| {
            let site = site();
            let t = LatencyTransport::with_jitter(&site, 100, 30, seed);
            let mut charges = Vec::new();
            let mut prev = 0;
            for _ in 0..50 {
                t.fetch("/search?make=Honda").unwrap();
                let elapsed = t.virtual_elapsed_ms();
                charges.push(elapsed - prev);
                prev = elapsed;
            }
            charges
        };
        let a = run(7);
        assert!(a.iter().all(|&ms| (100..=130).contains(&ms)), "{a:?}");
        assert!(
            a.iter().collect::<std::collections::HashSet<_>>().len() > 5,
            "jitter must actually vary: {a:?}"
        );
        assert_eq!(a, run(7), "same seed, same draws");
        assert_ne!(a, run(8), "different seed, different draws");
        // Zero jitter is the fixed-latency wire.
        let site = site();
        let t = LatencyTransport::with_jitter(&site, 100, 0, 9);
        t.fetch("/search?make=Honda").unwrap();
        assert_eq!(t.virtual_elapsed_ms(), 100);
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
