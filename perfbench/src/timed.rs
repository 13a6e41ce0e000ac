//! Timing decorators around the stack's public trait boundaries, and the
//! in-memory span recorder they feed.
//!
//! Each decorator forwards every method of its trait — the defaulted ones
//! too, so wrapping never silently swaps in a default — and times the calls
//! that do work as one span each. Spans carry a name, start, end, parent and
//! session id; they stay in memory until [`take`] hands them to the
//! analysis at the end of a run.
//!
//! Recording is off unless [`set_enabled`] turned it on, so a wrapped stack
//! costs one relaxed load per call while a run measures untraced sessions.
//!
//! Parenting: spans nest per thread. A span opened on a thread with no open
//! span of its own (the HTTP server's reactor loop answering the session's
//! request) takes as parent the innermost span open on the session thread,
//! which is the client fetch waiting for that very response — the load is
//! closed-loop, so exactly one request is ever in flight.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hdsampler_core::{
    Classified, QueryExecutor, Sample, SampleEvent, SampleSink, Sampler, SamplerError, SamplerStats,
};
use hdsampler_model::{ConjunctiveQuery, FormInterface, InterfaceError, QueryResponse, Schema};
use hdsampler_server::{Response, SiteBehavior};
use hdsampler_webform::{AsyncTransport, Clocked, ConnId, FetchHandle, FetchPoll, Transport};

/// One timed call at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (the decorator's label).
    pub name: &'static str,
    /// Unique id, never 0.
    pub id: u32,
    /// The enclosing span's id; 0 for a root.
    pub parent: u32,
    /// The session (or fleet job) the span belongs to.
    pub session: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Page bytes the call returned (transport spans; 0 elsewhere).
    pub bytes: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SESSION: AtomicU32 = AtomicU32::new(0);
/// Innermost span open on the session thread (0 when none).
static SESSION_TOP: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static ON_SESSION_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off for every decorator.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Take every span recorded so far, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// An open span; recorded when dropped, so a panic unwinding through a
/// layer still closes it and leaves the thread's stack balanced.
struct Open {
    name: &'static str,
    id: u32,
    parent: u32,
    session_thread: bool,
    start_ns: u64,
    bytes: u64,
}

impl Open {
    fn enter(name: &'static str) -> Open {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let session_thread = ON_SESSION_THREAD.with(Cell::get);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = match s.last() {
                Some(&p) => p,
                None if session_thread => 0,
                None => SESSION_TOP.load(Ordering::SeqCst),
            };
            s.push(id);
            parent
        });
        if session_thread {
            SESSION_TOP.store(id, Ordering::SeqCst);
        }
        Open {
            name,
            id,
            parent,
            session_thread,
            start_ns: now_ns(),
            bytes: 0,
        }
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        if self.session_thread {
            SESSION_TOP.store(self.parent, Ordering::SeqCst);
        }
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            session: SESSION.load(Ordering::Relaxed),
            start_ns: self.start_ns,
            end_ns,
            bytes: self.bytes,
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Run `f` inside a span named `name`; `bytes` sizes its result.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R, bytes: impl FnOnce(&R) -> u64) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let mut open = Open::enter(name);
    let out = f();
    open.bytes = bytes(&out);
    out
}

/// Run `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span(name, f, |_| 0)
}

/// Run one session (or fleet job) `session` on this thread as the root
/// span `name`: spans other threads open while it waits become children of
/// its innermost open span.
pub fn session<R>(session: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
    SESSION.store(session, Ordering::SeqCst);
    ON_SESSION_THREAD.with(|c| c.set(true));
    let out = timed(name, f);
    ON_SESSION_THREAD.with(|c| c.set(false));
    out
}

fn page_bytes(r: &Result<String, InterfaceError>) -> u64 {
    r.as_ref().map_or(0, |p| p.len() as u64)
}

/// [`FormInterface`] decorator: the scraper adapter, or the engine behind
/// a site.
#[derive(Debug)]
pub struct TimedForm<F> {
    inner: F,
    name: &'static str,
}

impl<F> TimedForm<F> {
    /// Time `inner`'s queries as `name`.
    pub fn new(name: &'static str, inner: F) -> Self {
        TimedForm { inner, name }
    }

    /// The wrapped interface.
    #[cfg(test)]
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: FormInterface> FormInterface for TimedForm<F> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn result_limit(&self) -> usize {
        self.inner.result_limit()
    }
    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
        timed(self.name, || self.inner.execute(query))
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        timed(self.name, || self.inner.count(query))
    }
    fn supports_count(&self) -> bool {
        self.inner.supports_count()
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn dataset_digest(&self) -> Option<u64> {
        self.inner.dataset_digest()
    }
}

/// [`Transport`] / [`AsyncTransport`] / [`Clocked`] decorator: a wire
/// (client side) or an in-process site. It also counts the requests sent
/// through it, traced or not.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    name: &'static str,
    attempts: AtomicU64,
}

impl<T> TimedTransport<T> {
    /// Time `inner`'s fetches as `name`.
    pub fn new(name: &'static str, inner: T) -> Self {
        TimedTransport {
            inner,
            name,
            attempts: AtomicU64::new(0),
        }
    }

    /// Requests sent through this wire: every `fetch` and `submit`,
    /// retries included.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        span(self.name, || self.inner.fetch(path), page_bytes)
    }
    fn close_idle(&self) -> usize {
        self.inner.close_idle()
    }
    fn backoff(&self, ms: u64) {
        self.inner.backoff(ms)
    }
}

impl<T: AsyncTransport> AsyncTransport for TimedTransport<T> {
    fn connect(&self) -> ConnId {
        self.inner.connect()
    }
    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        timed(self.name, || self.inner.submit(conn, path))
    }
    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        span(
            self.name,
            || self.inner.poll(handle),
            |p| match p {
                FetchPoll::Ready(r) => page_bytes(r),
                FetchPoll::Pending(_) => 0,
            },
        )
    }
    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        span(self.name, || self.inner.complete(handle), page_bytes)
    }
    fn cancel(&self, handle: FetchHandle) {
        self.inner.cancel(handle)
    }
    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        self.inner.observe_now(conn, now_ms)
    }
    fn virtual_elapsed_ms(&self) -> u64 {
        self.inner.virtual_elapsed_ms()
    }
    fn wire_is_virtual(&self) -> bool {
        self.inner.wire_is_virtual()
    }
    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        timed(self.name, || self.inner.wait_ready(timeout_ms))
    }
}

impl<T: Clocked> Clocked for TimedTransport<T> {
    fn elapsed_ms(&self) -> u64 {
        self.inner.elapsed_ms()
    }
}

/// [`SiteBehavior`] decorator: the HTTP server's request handler.
#[derive(Debug)]
pub struct TimedSite<S> {
    inner: S,
    name: &'static str,
}

impl<S> TimedSite<S> {
    /// Time `inner`'s requests as `name`.
    pub fn new(name: &'static str, inner: S) -> Self {
        TimedSite { inner, name }
    }
}

impl<S: SiteBehavior> SiteBehavior for TimedSite<S> {
    fn get(&self, target: &str) -> Response {
        span(
            self.name,
            || self.inner.get(target),
            |r| r.body.len() as u64,
        )
    }
}

/// [`QueryExecutor`] decorator: the history cache (L1, and L2 when
/// attached).
#[derive(Debug)]
pub struct TimedExec<E> {
    inner: E,
    name: &'static str,
}

impl<E> TimedExec<E> {
    /// Time `inner`'s lookups as `name`.
    pub fn new(name: &'static str, inner: E) -> Self {
        TimedExec { inner, name }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: QueryExecutor> QueryExecutor for TimedExec<E> {
    fn classify(&self, query: &ConjunctiveQuery) -> Result<Classified, InterfaceError> {
        timed(self.name, || self.inner.classify(query))
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        timed(self.name, || self.inner.count(query))
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn result_limit(&self) -> usize {
        self.inner.result_limit()
    }
    fn supports_count(&self) -> bool {
        self.inner.supports_count()
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn requests(&self) -> u64 {
        self.inner.requests()
    }
}

/// [`Sampler`] decorator: the walk machine, timed per accepted sample.
#[derive(Debug)]
pub struct TimedSampler<S> {
    inner: S,
    name: &'static str,
}

impl<S> TimedSampler<S> {
    /// Time `inner`'s samples as `name`.
    pub fn new(name: &'static str, inner: S) -> Self {
        TimedSampler { inner, name }
    }
}

impl<S: Sampler> Sampler for TimedSampler<S> {
    fn next_sample(&mut self) -> Result<Sample, SamplerError> {
        let inner = &mut self.inner;
        timed(self.name, || inner.next_sample())
    }
    fn stats(&self) -> SamplerStats {
        self.inner.stats()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// [`SampleSink`] decorator: an estimator fed live.
pub struct TimedSink {
    inner: Box<dyn SampleSink>,
    name: &'static str,
}

impl TimedSink {
    /// Time `inner`'s observations as `name`.
    pub fn new(name: &'static str, inner: Box<dyn SampleSink>) -> Self {
        TimedSink { inner, name }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &dyn SampleSink {
        &*self.inner
    }
}

impl SampleSink for TimedSink {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        let inner = &mut self.inner;
        timed(self.name, || inner.observe(event))
    }
    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(TimedSink::new(self.name, self.inner.fork()))
    }
    fn merge(&mut self, other: Box<dyn SampleSink>) {
        let other = hdsampler_core::merged::<TimedSink>(other);
        self.inner.merge(other.inner);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    //! A stack with every layer behind a decorator must behave exactly like
    //! the bare stack: same samples in the same order, same counters.

    use std::sync::Arc;

    use hdsampler_core::{
        CachingExecutor, HdsSampler, HistoryStats, QueryExecutor, SampleSink, SamplerConfig,
        SamplerStats, SamplingSession,
    };
    use hdsampler_estimator::Histogram;
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_model::{AttrId, FormInterface};
    use hdsampler_server::{HttpServer, ServerConfig};
    use hdsampler_webform::{
        AsyncTransport, ChaosSpec, ChaosTransport, Clocked, Driver, HttpTransport,
        LatencyTransport, LocalSite, RetryPolicy, RunPlan, SiteTask, Transport, WebFormInterface,
    };
    use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

    use super::*;

    const SAMPLES: usize = 40;

    /// The recorder is process-wide: tests that read it take turns.
    static RECORDER: Mutex<()> = Mutex::new(());

    fn recording() -> std::sync::MutexGuard<'static, ()> {
        let guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        take();
        guard
    }

    fn db(seed: u64) -> HiddenDb {
        WorkloadSpec::vehicles(
            VehiclesSpec::compact(800, seed),
            DbConfig::no_counts().with_k(40),
        )
        .build()
    }

    /// What a session leaves behind, for comparison.
    #[derive(Debug, PartialEq)]
    struct Seen {
        keys: Vec<u64>,
        stats: SamplerStats,
        history: HistoryStats,
        queries: u64,
        requests: u64,
        weights: Vec<f64>,
        wire_ms: u64,
    }

    fn session<T: Transport + Clocked, F: FormInterface>(
        iface: &F,
        wire: impl Fn(&F) -> &T,
        wrap: bool,
    ) -> Seen {
        let exec = CachingExecutor::new(iface);
        let cfg = SamplerConfig::seeded(11).with_slider(0.3);
        let schema = iface.schema().clone();
        let mut hist = Histogram::new(&schema, AttrId(0));
        let (outcome, requests, queries) = if wrap {
            let exec = TimedExec::new("history", &exec);
            let mut sampler = TimedSampler::new(
                "machine",
                HdsSampler::new(&exec, cfg).expect("valid config"),
            );
            let mut sink = TimedSink::new("estimator", Box::new(hist.clone()));
            let outcome = {
                let mut sinks: Vec<&mut dyn SampleSink> = vec![&mut sink];
                SamplingSession::new(SAMPLES).run_observed(&mut sampler, &mut sinks, |_| {})
            };
            hist = sink
                .inner()
                .as_any()
                .downcast_ref::<Histogram>()
                .expect("histogram")
                .clone();
            (outcome, exec.requests(), exec.queries_issued())
        } else {
            let mut sampler = HdsSampler::new(&exec, cfg).expect("valid config");
            let outcome = {
                let mut sinks: Vec<&mut dyn SampleSink> = vec![&mut hist];
                SamplingSession::new(SAMPLES).run_observed(&mut sampler, &mut sinks, |_| {})
            };
            (outcome, exec.requests(), exec.queries_issued())
        };
        assert_eq!(outcome.samples.len(), SAMPLES);
        Seen {
            keys: outcome.samples.keys(),
            stats: outcome.stats,
            history: exec.history_stats(),
            queries,
            requests,
            weights: hist.counts().to_vec(),
            wire_ms: wire(iface).elapsed_ms(),
        }
    }

    #[test]
    fn wrapped_in_process_stack_matches_bare_stack() {
        let _turn = recording();
        let bare_db = db(5);
        let schema = Arc::new(bare_db.schema().clone());
        let digest = bare_db.dataset_digest();
        let bare = WebFormInterface::new(
            LatencyTransport::new(LocalSite::new(bare_db, Arc::clone(&schema)), 1),
            Arc::clone(&schema),
            40,
            false,
        );
        let engine = TimedForm::new("engine", db(5));
        assert_eq!(engine.dataset_digest(), digest, "the digest is forwarded");
        let wrapped = TimedForm::new(
            "adapter",
            WebFormInterface::new(
                TimedTransport::new(
                    "wire",
                    LatencyTransport::new(
                        TimedTransport::new("site", LocalSite::new(engine, Arc::clone(&schema))),
                        1,
                    ),
                ),
                Arc::clone(&schema),
                40,
                false,
            ),
        );
        let want = session(&bare, |i| i.transport(), false);
        let got = session(&wrapped, |i| i.inner().transport(), true);
        assert_eq!(got, want);
        assert_eq!(
            wrapped.inner().transport().wire_is_virtual(),
            bare.transport().wire_is_virtual()
        );
        assert_eq!(wrapped.inner().transport().wait_ready(0), None);
        assert!(take().iter().any(|s| s.name == "engine"));
    }

    #[test]
    fn wrapped_http_stack_matches_bare_stack() {
        let _turn = recording();
        let cfg = || ServerConfig {
            reactor_threads: 1,
            ..ServerConfig::default()
        };
        let bare_db = db(6);
        let schema = Arc::new(bare_db.schema().clone());
        let bare_server = HttpServer::serve(
            cfg(),
            Arc::new(LocalSite::new(bare_db, Arc::clone(&schema))),
        )
        .expect("bind");
        let wrapped_server = HttpServer::serve(
            cfg(),
            Arc::new(TimedSite::new(
                "server",
                LocalSite::new(TimedForm::new("engine", db(6)), Arc::clone(&schema)),
            )),
        )
        .expect("bind");
        let bare = WebFormInterface::new(
            HttpTransport::new(bare_server.addr().to_string()),
            Arc::clone(&schema),
            40,
            false,
        );
        let wrapped = TimedForm::new(
            "adapter",
            WebFormInterface::new(
                TimedTransport::new(
                    "httpc",
                    HttpTransport::new(wrapped_server.addr().to_string()),
                ),
                Arc::clone(&schema),
                40,
                false,
            ),
        );
        let mut want = session(&bare, |i| i.transport(), false);
        let mut got = session(&wrapped, |i| i.inner().transport(), true);
        // The real wire's clock is wall time.
        want.wire_ms = 0;
        got.wire_ms = 0;
        assert_eq!(got, want);
        assert_eq!(wrapped.inner().transport().close_idle(), 1);
        assert_eq!(bare.transport().close_idle(), 1);
        let (b, w) = (bare_server.shutdown(), wrapped_server.shutdown());
        assert_eq!(w.requests, b.requests);
        assert_eq!(w.bytes_out, b.bytes_out);
        assert!(take().iter().any(|s| s.name == "server"));
    }

    fn fleet<W: Transport + Clocked>(
        wrap: impl Fn(ChaosTransport<LocalSite<Box<dyn FormInterface>>>) -> W,
        timed_engine: bool,
    ) -> Vec<SiteTask<W>> {
        (0..2)
            .map(|i| {
                let db = db(90 + i);
                let schema = Arc::new(db.schema().clone());
                let engine: Box<dyn FormInterface> = if timed_engine {
                    Box::new(TimedForm::new("engine", db))
                } else {
                    Box::new(db)
                };
                let spec = ChaosSpec {
                    seed: 3 + i,
                    latency_ms: 40,
                    throttle: if i == 0 { 0.5 } else { 0.0 },
                    retry_after_ms: 600,
                    fail: if i == 0 { 0.05 } else { 0.0 },
                    ..ChaosSpec::default()
                };
                let wire = wrap(ChaosTransport::new(
                    LocalSite::new(engine, Arc::clone(&schema)),
                    spec,
                ));
                let iface =
                    WebFormInterface::new(wire, schema, 40, false).with_retry(RetryPolicy {
                        max_retries: 20,
                        base_backoff_ms: 25,
                        max_backoff_ms: 600,
                    });
                SiteTask::new(format!("site-{i}"), iface)
            })
            .collect()
    }

    fn drive<T: Transport + AsyncTransport + Clocked + Send>(
        tasks: &mut [SiteTask<T>],
    ) -> (Vec<Vec<u64>>, u64, u64, u64, u64) {
        let report = RunPlan::target(20)
            .walkers(4)
            .seed(7)
            .slider(0.4)
            .driver(Driver::Coop { conns: Some(2) })
            .steal(true)
            .run(tasks);
        (
            report
                .fleet
                .sites
                .iter()
                .map(|s| s.samples.keys())
                .collect(),
            report.fleet.total_fetches(),
            report.fleet.total_retries(),
            report.fleet.total_steals(),
            report.fleet.fleet_elapsed_ms,
        )
    }

    #[test]
    fn wrapped_coop_fleet_matches_bare_fleet() {
        let _turn = recording();
        let want = drive(&mut fleet(|w| w, false));
        let got = drive(&mut fleet(|w| TimedTransport::new("wire", w), true));
        assert_eq!(got, want);
        assert!(want.2 > 0, "the throttled site made the fleet retry");
        assert!(take().iter().any(|s| s.name == "wire" && s.bytes > 0));
    }
}
