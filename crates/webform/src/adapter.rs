//! [`WebFormInterface`]: a complete [`FormInterface`] implemented by
//! scraping pages over a [`Transport`].
//!
//! Stacking this adapter on a [`LocalSite`](crate::transport::LocalSite)
//! gives samplers the exact pipeline a live deployment has:
//!
//! ```text
//! sampler → WebFormInterface → URL encode → Transport → WebForm parse
//!         → HiddenDb (top-k, budget, counts) → HTML render → scrape → rows
//! ```
//!
//! Every value a sampler ever sees has survived the string round trip.
//! The request path is percent-encoded straight into one buffer, and the
//! page comes back through the form's
//! [`PageCodec`](crate::form::PageCodec) and its one-pass scraper.
//! [`FormInterface::execute`] returns the full response. The paths a
//! sampler takes — [`FormInterface::execute_for_sampler`],
//! [`FormInterface::count`] and the non-blocking
//! [`WebFormInterface::poll_query`] and [`WebFormInterface::complete_query`]
//! — return sampler responses
//! ([`PageCodec::scrape_for_sampler`](crate::form::PageCodec::scrape_for_sampler)):
//! an overflow page's rows are checked but not decoded, and come back
//! empty.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hdsampler_model::{ConjunctiveQuery, FormInterface, InterfaceError, QueryResponse, Schema};

use crate::aio::{AsyncTransport, ConnId, FetchHandle, FetchPoll};
use crate::chaos::RetryPolicy;
use crate::form::WebForm;
use crate::transport::Transport;

/// Token for one in-flight query on the non-blocking execute path.
#[derive(Debug)]
pub struct QueryHandle {
    fetch: FetchHandle,
}

impl QueryHandle {
    /// The connection the query's fetch occupies.
    pub fn conn(&self) -> ConnId {
        self.fetch.conn()
    }

    /// Completion time on the connection's virtual clock (ms); `0` for
    /// real-wire transports, whose completions arrive in physical time.
    pub fn ready_at_ms(&self) -> u64 {
        self.fetch.ready_at_ms()
    }

    /// Virtual queue wait before the fetch departed (0 on real wires).
    pub fn queued_ms(&self) -> u64 {
        self.fetch.queued_ms()
    }

    /// Virtual service time of the fetch itself (0 on real wires).
    pub fn service_ms(&self) -> u64 {
        self.fetch.service_ms()
    }
}

/// Outcome of a non-blocking [`WebFormInterface::poll_query`].
#[derive(Debug)]
pub enum QueryPoll {
    /// The fetch is still in flight; the handle is handed back.
    Pending(QueryHandle),
    /// Done: the scraped sampler response (an overflow's rows left
    /// empty), or the transport/parse error.
    Ready(Result<QueryResponse, InterfaceError>),
}

/// Scraper-side interface over a web form.
#[derive(Debug)]
pub struct WebFormInterface<T> {
    transport: T,
    form: WebForm,
    /// The k advertised by the site (a scraper learns it from the site's
    /// documentation or by observation; here it is configured).
    k: usize,
    supports_count: bool,
    retry: RetryPolicy,
    fetches: AtomicU64,
    /// Extra attempts beyond each query's first (transient failures
    /// retried). Charged separately from `fetches`: a retried query is
    /// still *one* query against the site's budget.
    retries: AtomicU64,
    /// Total backoff waited between retries, ms (virtual or real,
    /// whichever clock the transport runs on).
    backoff_ms: AtomicU64,
}

impl<T: Transport> WebFormInterface<T> {
    /// Build a scraper over `transport` for a site exposing `schema` with
    /// display limit `k`. `supports_count` declares whether the site prints
    /// a count banner. Transient failures (throttles, 503s, dropped
    /// connections) are retried under [`RetryPolicy::default`]; tune or
    /// disable with [`with_retry`](WebFormInterface::with_retry).
    pub fn new(transport: T, schema: Arc<Schema>, k: usize, supports_count: bool) -> Self {
        Self::with_form(
            transport,
            WebForm::new(schema, "/search"),
            k,
            supports_count,
        )
    }

    /// Like [`new`](WebFormInterface::new), but with an explicit
    /// [`WebForm`] — the constructor schema discovery uses, since a scraped
    /// landing page names its own action rather than assuming `/search`.
    pub fn with_form(transport: T, form: WebForm, k: usize, supports_count: bool) -> Self {
        WebFormInterface {
            transport,
            form,
            k,
            supports_count,
            retry: RetryPolicy::default(),
            fetches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
        }
    }

    /// Replace the retry policy ([`RetryPolicy::none`] fails fast).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The transport (e.g. to read virtual latency).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Pages fetched by this scraper (logical queries, not attempts).
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Extra attempts spent retrying transient failures.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total backoff waited between retries (ms).
    pub fn backoff_ms(&self) -> u64 {
        self.backoff_ms.load(Ordering::Relaxed)
    }

    /// Fetch `query`'s results page on the blocking face, charging one
    /// query and retrying transient failures under the retry policy.
    fn fetch_page(&self, query: &ConjunctiveQuery) -> Result<String, InterfaceError> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let path = self.form.request_path(query);
        let mut attempt = 0u32;
        loop {
            match self.transport.fetch(&path) {
                Ok(page) => return Ok(page),
                Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                    let wait = self.retry.backoff_ms(attempt, e.retry_after_ms());
                    self.note_retry(wait);
                    self.transport.backoff(wait);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Record one driver-level retry attempt (cooperative drivers resubmit
    /// faulted queries themselves rather than through the blocking path).
    pub fn note_retry(&self, backoff_ms: u64) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.backoff_ms.fetch_add(backoff_ms, Ordering::Relaxed);
    }
}

/// The non-blocking execute path: submit a query on an explicit virtual
/// connection, poll or complete it later. One thread can keep several
/// sites' (or one site's) queries in flight; the wire bills them as
/// overlapping.
impl<T: AsyncTransport> WebFormInterface<T> {
    /// Open a fresh virtual connection on the underlying transport.
    pub fn connect(&self) -> ConnId {
        self.transport.connect()
    }

    /// Begin executing `query` on `conn` without blocking.
    pub fn submit_query(&self, conn: ConnId, query: &ConjunctiveQuery) -> QueryHandle {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let path = self.form.request_path(query);
        QueryHandle {
            fetch: self.transport.submit(conn, &path),
        }
    }

    /// Resubmit a query whose previous attempt failed transiently. Counted
    /// as a retry, not a fresh fetch — the query was already charged once.
    pub fn resubmit_query(&self, conn: ConnId, query: &ConjunctiveQuery) -> QueryHandle {
        let path = self.form.request_path(query);
        QueryHandle {
            fetch: self.transport.submit(conn, &path),
        }
    }

    /// Whether the underlying wire's clock is virtual (see
    /// [`AsyncTransport::wire_is_virtual`]).
    pub fn wire_is_virtual(&self) -> bool {
        self.transport.wire_is_virtual()
    }

    /// One readiness wait across all of the transport's connections (see
    /// [`AsyncTransport::wait_ready`]); `None` when the wire has no
    /// reactor and callers must fall back to a blocking completion.
    pub fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        self.transport.wait_ready(timeout_ms)
    }

    /// Check a submitted query for completion without advancing virtual
    /// time. A ready page is scraped for a sampler: an overflow's rows
    /// come back empty.
    pub fn poll_query(&self, handle: QueryHandle) -> QueryPoll {
        match self.transport.poll(handle.fetch) {
            FetchPoll::Pending(fetch) => QueryPoll::Pending(QueryHandle { fetch }),
            FetchPoll::Ready(page) => {
                QueryPoll::Ready(page.and_then(|html| self.form.codec().scrape_for_sampler(&html)))
            }
        }
    }

    /// Advance the connection's clock to the query's completion and scrape
    /// the page for a sampler: an overflow's rows come back empty.
    pub fn complete_query(&self, handle: QueryHandle) -> Result<QueryResponse, InterfaceError> {
        let page = self.transport.complete(handle.fetch)?;
        self.form.codec().scrape_for_sampler(&page)
    }

    /// Abandon a submitted query, releasing its buffered page. The fetch
    /// still happened (and was charged); only the result is discarded.
    pub fn cancel_query(&self, handle: QueryHandle) {
        self.transport.cancel(handle.fetch);
    }
}

impl<T: Transport> FormInterface for WebFormInterface<T> {
    fn schema(&self) -> &Schema {
        self.form.schema()
    }

    fn result_limit(&self) -> usize {
        self.k
    }

    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
        self.form.codec().scrape_page(&self.fetch_page(query)?)
    }

    fn execute_for_sampler(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<QueryResponse, InterfaceError> {
        self.form
            .codec()
            .scrape_for_sampler(&self.fetch_page(query)?)
    }

    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        if !self.supports_count {
            return Err(InterfaceError::Unsupported("count reporting"));
        }
        let resp = self.execute_for_sampler(query)?;
        resp.reported_count
            .ok_or_else(|| InterfaceError::Parse("count banner missing".into()))
    }

    fn supports_count(&self) -> bool {
        self.supports_count
    }

    fn queries_issued(&self) -> u64 {
        self.fetches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalSite;
    use hdsampler_hidden_db::{CountMode, HiddenDb};
    use hdsampler_model::{AttrId, Attribute, Classification, SchemaBuilder, Tuple};

    fn stack(k: usize, mode: CountMode) -> (Arc<Schema>, WebFormInterface<LocalSite<HiddenDb>>) {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("a1"))
            .attribute(Attribute::boolean("a2"))
            .attribute(Attribute::boolean("a3"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema))
            .result_limit(k)
            .count_mode(mode);
        for vals in [[0u16, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 0]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        let site = LocalSite::new(b.finish(), Arc::clone(&schema));
        let supports = !matches!(mode, CountMode::Absent);
        let iface = WebFormInterface::new(site, Arc::clone(&schema), k, supports);
        (schema, iface)
    }

    fn q(pairs: &[(u16, u16)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_pairs(pairs.iter().map(|&(a, v)| (AttrId(a), v))).unwrap()
    }

    #[test]
    fn scraped_responses_match_direct_access() {
        let (_, iface) = stack(1, CountMode::Exact);
        // Direct comparison: build the same db again and execute directly.
        let (_, iface2) = stack(1, CountMode::Exact);
        let direct = iface2.transport().backend();
        for query in [
            ConjunctiveQuery::empty(),
            q(&[(0, 0)]),
            q(&[(0, 1)]),
            q(&[(0, 1), (1, 0)]),
            q(&[(0, 0), (1, 0)]),
        ] {
            let scraped = iface.execute(&query).unwrap();
            let truth = direct.execute(&query).unwrap();
            assert_eq!(scraped, truth, "query {query:?}");
        }
    }

    #[test]
    fn execute_keeps_overflow_rows_and_sampler_paths_leave_them_out() {
        let (schema, iface) = stack(1, CountMode::Exact);
        let overflow_q = q(&[(0, 0)]);
        let full = iface.execute(&overflow_q).unwrap();
        assert!(full.overflow);
        assert_eq!(full.rows.len(), 1, "execute returns the top-k row");
        let want = QueryResponse {
            rows: vec![],
            ..full
        };
        assert_eq!(iface.execute_for_sampler(&overflow_q).unwrap(), want);
        let wire = crate::transport::LatencyTransport::new(iface.transport(), 5);
        let wired = WebFormInterface::new(wire, schema, 1, true);
        let handle = wired.submit_query(wired.connect(), &overflow_q);
        assert_eq!(wired.complete_query(handle).unwrap(), want);
        let valid_q = q(&[(0, 1)]);
        assert_eq!(
            iface.execute_for_sampler(&valid_q).unwrap(),
            iface.execute(&valid_q).unwrap(),
            "a valid page is decoded in full"
        );
        assert_eq!(iface.fetches(), 4);
    }

    #[test]
    fn classifications_survive_the_wire() {
        let (_, iface) = stack(1, CountMode::Absent);
        assert_eq!(
            iface.execute(&q(&[(0, 0)])).unwrap().classification(),
            Classification::Overflow
        );
        assert_eq!(
            iface.execute(&q(&[(0, 1)])).unwrap().classification(),
            Classification::Valid
        );
        assert_eq!(
            iface
                .execute(&q(&[(0, 1), (1, 0)]))
                .unwrap()
                .classification(),
            Classification::Empty
        );
    }

    #[test]
    fn count_via_banner() {
        let (_, iface) = stack(1, CountMode::Exact);
        assert_eq!(iface.count(&q(&[(0, 0)])).unwrap(), 3);
        let (_, no_counts) = stack(1, CountMode::Absent);
        assert!(matches!(
            no_counts.count(&q(&[(0, 0)])),
            Err(InterfaceError::Unsupported(_))
        ));
    }

    #[test]
    fn fetches_are_counted_end_to_end() {
        let (_, iface) = stack(1, CountMode::Exact);
        iface.execute(&ConjunctiveQuery::empty()).unwrap();
        iface.count(&q(&[(0, 0)])).unwrap();
        assert_eq!(iface.fetches(), 2);
        assert_eq!(iface.queries_issued(), 2);
        // The backend charged the same number.
        assert_eq!(iface.transport().backend().queries_issued(), 2);
    }

    #[test]
    fn non_blocking_execute_path_overlaps_queries() {
        use crate::transport::LatencyTransport;
        use hdsampler_model::Classification;

        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("a1"))
            .attribute(Attribute::boolean("a2"))
            .attribute(Attribute::boolean("a3"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema)).result_limit(1);
        for vals in [[0u16, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 0]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        let site = LocalSite::new(b.finish(), Arc::clone(&schema));
        let wire = LatencyTransport::new(site, 100);
        let iface = WebFormInterface::new(wire, Arc::clone(&schema), 1, false);

        // Three queries in flight on three connections from one thread.
        let handles: Vec<_> = [q(&[(0, 0)]), q(&[(0, 1)]), q(&[(0, 1), (1, 0)])]
            .iter()
            .map(|query| {
                let conn = iface.connect();
                iface.submit_query(conn, query)
            })
            .collect();
        let mut classes = Vec::new();
        for h in handles {
            // Unadvanced clock: still pending.
            let h = match iface.poll_query(h) {
                QueryPoll::Pending(h) => h,
                QueryPoll::Ready(_) => panic!("no completion before the clock advances"),
            };
            classes.push(iface.complete_query(h).unwrap().classification());
        }
        assert_eq!(
            classes,
            vec![
                Classification::Overflow,
                Classification::Valid,
                Classification::Empty
            ]
        );
        assert_eq!(iface.fetches(), 3);
        assert_eq!(
            iface.transport().virtual_elapsed_ms(),
            100,
            "three overlapping queries cost one RTT"
        );
    }

    #[test]
    fn transient_failures_retry_and_are_charged_separately() {
        use crate::chaos::{ChaosSpec, ChaosTransport};
        let (schema, _iface) = stack(1, CountMode::Absent);
        // Every request is throttled: retries exhaust and the error
        // surfaces, but the query is charged once and the attempts land in
        // the retry counters.
        let site = {
            let mut b = HiddenDb::builder(Arc::clone(&schema)).result_limit(1);
            b.push(&Tuple::new(&schema, vec![0, 0, 1], vec![]).unwrap())
                .unwrap();
            LocalSite::new(b.finish(), Arc::clone(&schema))
        };
        let chaos = ChaosTransport::new(
            site,
            ChaosSpec {
                throttle: 1.0,
                retry_after_ms: 40,
                ..ChaosSpec::default()
            },
        );
        let iface = WebFormInterface::new(chaos, Arc::clone(&schema), 1, false);
        let err = iface.execute(&q(&[(0, 0)])).unwrap_err();
        assert!(matches!(err, InterfaceError::Throttled { .. }));
        let policy = iface.retry_policy();
        assert_eq!(iface.fetches(), 1, "one logical query");
        assert_eq!(
            iface.queries_issued(),
            1,
            "budget view unchanged by retries"
        );
        assert_eq!(iface.retries(), policy.max_retries as u64);
        assert_eq!(
            iface.backoff_ms(),
            policy.max_retries as u64 * 40,
            "Retry-After honored per attempt"
        );
        assert_eq!(
            iface.transport().inner().backend().queries_issued(),
            0,
            "throttled attempts never reach the backend"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

        /// Satellite: retry accounting never double-charges the site's
        /// query budget — however many attempts chaos forces, the backend
        /// is charged once per *successful* logical query and the
        /// interface's budget view counts logical queries, never attempts.
        #[test]
        fn retries_never_double_charge_the_budget(
            seed in 0u64..10_000,
            throttle in 0.0f64..0.35,
            fail in 0.0f64..0.25,
            drop in 0.0f64..0.2,
        ) {
            use crate::chaos::{ChaosSpec, ChaosTransport, RetryPolicy};
            let schema = SchemaBuilder::new()
                .attribute(Attribute::boolean("a1"))
                .attribute(Attribute::boolean("a2"))
                .finish()
                .unwrap()
                .into_shared();
            let mut b = HiddenDb::builder(Arc::clone(&schema)).result_limit(1);
            for vals in [[0u16, 1], [1, 0], [1, 1]] {
                b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap()).unwrap();
            }
            let site = LocalSite::new(b.finish(), Arc::clone(&schema));
            let chaos = ChaosTransport::new(site, ChaosSpec {
                seed,
                throttle,
                retry_after_ms: 10,
                fail,
                drop,
                ..ChaosSpec::default()
            });
            let iface = WebFormInterface::new(chaos, Arc::clone(&schema), 1, false)
                .with_retry(RetryPolicy { max_retries: 12, base_backoff_ms: 1, max_backoff_ms: 8 });
            let queries = [q(&[(0, 0)]), q(&[(0, 1)]), q(&[(1, 0)]), q(&[(1, 1)])];
            let mut successes = 0u64;
            for i in 0..40 {
                if iface.execute(&queries[i % queries.len()]).is_ok() {
                    successes += 1;
                }
            }
            proptest::prop_assert_eq!(iface.fetches(), 40, "one charge per logical query");
            proptest::prop_assert_eq!(iface.queries_issued(), 40);
            let backend_charges = iface.transport().inner().backend().queries_issued();
            proptest::prop_assert_eq!(
                backend_charges, successes,
                "backend charged exactly once per served query"
            );
            proptest::prop_assert!(backend_charges <= iface.fetches());
        }
    }

    #[test]
    fn sampler_runs_end_to_end_over_html() {
        use hdsampler_core::{DirectExecutor, HdsSampler, Sampler, SamplerConfig};
        let (_, iface) = stack(1, CountMode::Absent);
        let mut s =
            HdsSampler::new(DirectExecutor::new(&iface), SamplerConfig::seeded(77)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..120 {
            let smp = s.next_sample().unwrap();
            seen.insert(smp.row.values.to_vec());
        }
        assert_eq!(seen.len(), 4, "all four tuples sampled through HTML");
    }
}
