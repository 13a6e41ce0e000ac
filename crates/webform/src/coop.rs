//! The cooperative engine behind [`RunPlan`](crate::plan::RunPlan): one
//! OS thread, hundreds of in-flight form submissions.
//!
//! Every plan runs here, from a one-site, one-walker `sample` session to
//! a many-site adversarial fleet. The paper's cost model is round trips,
//! so a scraper's throughput question is how many submissions it keeps in
//! flight. Spending one OS thread per walker caps that at "how many stacks
//! fit"; parking each walker's state machine caps it at memory.
//!
//! The engine multiplexes. Every walker is a
//! [`WalkMachine`](hdsampler_core::WalkMachine) — the HIDDEN-DB-SAMPLER
//! walk as a resumable state machine — parked whenever its next query is
//! on the wire:
//!
//! * a machine yields `NeedCount(query)`; the site's shared history cache
//!   is consulted first ([`CachingExecutor::try_classify_stamped`]) — a hit
//!   resumes the machine immediately without touching the wire;
//! * on a miss the query is submitted on the walker's [`ConnId`] of the
//!   site's [`AsyncTransport`] and the machine parks;
//! * completions are harvested with non-blocking polls and resumed in
//!   completion order; when nothing is ready, the engine blocks on (or,
//!   for virtual wires, advances to) the earliest outstanding completion.
//!
//! Causality is preserved across the cache: when a machine consumes a
//! cached fact, its connection's observed clock is floored at the site's
//! knowledge time ([`AsyncTransport::observe_now`]), so a follow-up
//! request can never depart before the completion whose result motivated
//! it — virtual wires would otherwise bill time-travelling walks.
//!
//! Seed for seed, walker (s, w) produces the *identical* sample sequence
//! as a standalone blocking [`HdsSampler`](hdsampler_core::HdsSampler)
//! over the same [`FleetConfig::walker_config`] seed: both run the same
//! machine, and the history cache answers are semantically equal to the
//! wire's.
//!
//! ## Adversarial sites: backoff and work-stealing
//!
//! Against a hostile wire (throttling 429s, transient 5xx, dropped
//! connections — see [`crate::chaos`]) the engine retries instead of
//! failing the site: a transiently-failed fetch parks its walker in
//! *backoff* for the server-advertised `Retry-After` (or an exponential
//! schedule from the interface's [`RetryPolicy`](crate::chaos::RetryPolicy))
//! and resubmits the same logical query afterwards. On virtual wires the
//! wait is billed by flooring the walker's connection clock — no real time
//! passes; on real wires the walker genuinely waits out the interval while
//! the rest of the fleet keeps harvesting. Retries are charged to separate
//! `retries`/`backoff_vms` counters, never as extra logical queries.
//!
//! With [`RunPlan::steal`](crate::plan::RunPlan::steal) set, sites that
//! finish early donate their walker slots to the hungriest still-running
//! site: a fresh seeded machine is spawned on a fresh connection whose
//! clock is floored at `max(receiver knowledge, donor elapsed)` — the
//! stolen walker cannot pretend to have started before the donor actually
//! freed it. Stealing is a data-structure move (a `Walker` pushed onto
//! another site's vector), not a thread handoff.

use hdsampler_core::{
    CachingExecutor, Classified, HitTier, QueryExecutor, SampleEvent, SampleSet, SampleSink,
    SamplerError, SamplerStats, StopReason, TraceEvent, TraceSink, Tracer, WalkMachine, WalkStep,
};
use hdsampler_model::{ConjunctiveQuery, FormInterface, InterfaceError, QueryResponse, Schema};

use crate::adapter::{QueryHandle, QueryPoll, WebFormInterface};
use crate::aio::{AsyncTransport, ConnId};
use crate::driver::{FleetConfig, FleetReport, SiteReport, SiteTask};
use crate::transport::{Clocked, Transport};

/// A submitted fetch, as numbered when its walker parked on it.
struct Fetch {
    query: ConjunctiveQuery,
    /// Virtual completion time (0 on real wires).
    ready_at: u64,
    /// Wire wait spent queued behind earlier requests on the connection.
    queued_ms: u64,
    /// Wire service time of the fetch itself.
    service_ms: u64,
    /// Site-wide submission sequence number (completion-order tie-break).
    seq: u64,
    /// Trace span id tying the submit event to its completion (0 when
    /// tracing is off).
    span: u64,
}

/// One in-flight fetch a walker is parked on.
struct Pending {
    handle: QueryHandle,
    fetch: Fetch,
}

/// A walker waiting out a retry backoff on a *real* wire. (Virtual wires
/// never park here: their backoff is billed by flooring the connection
/// clock and the query is resubmitted immediately.)
struct Backoff {
    /// The logical query to resubmit — already charged once; the retry
    /// goes through [`WebFormInterface::resubmit_query`].
    query: ConjunctiveQuery,
    /// Wall-clock instant the walker may hit the site again.
    release_at: std::time::Instant,
}

/// One cooperative walker: a parked or runnable walk machine riding a
/// connection.
struct Walker {
    machine: WalkMachine,
    conn: ConnId,
    pending: Option<Pending>,
    /// Set while waiting out a retry backoff (real wires only).
    backoff: Option<Backoff>,
    /// Consecutive transient failures of the current logical query.
    attempts: u32,
    /// Listing keys of this walker's samples, in production order.
    keys: Vec<u64>,
}

impl Walker {
    /// Walker `w` of site `six`, seeded by `cfg`, riding `conn`.
    fn new(cfg: &FleetConfig, schema: &Schema, six: usize, w: usize, conn: ConnId) -> Self {
        Walker {
            machine: WalkMachine::new(schema, cfg.walker_config(six, w))
                .expect("fleet walker configuration is valid"),
            conn,
            pending: None,
            backoff: None,
            attempts: 0,
            keys: Vec::new(),
        }
    }
}

/// Everything one site needs while being driven.
struct SiteState<'a, T: Transport + Clocked> {
    six: usize,
    name: &'a str,
    iface: &'a WebFormInterface<T>,
    /// The task's per-site streaming sink, observed at every accepted
    /// sample.
    sink: Option<&'a mut dyn SampleSink>,
    exec: CachingExecutor<&'a WebFormInterface<T>>,
    walkers: Vec<Walker>,
    samples: SampleSet,
    /// Highest completion time any of this site's fetches has reached —
    /// the causal floor for cache-hit resumes.
    knowledge_ms: u64,
    connections: usize,
    stopped: Option<StopReason>,
    next_seq: u64,
    /// Walkers stolen *into* this site from finished donors.
    steals: u64,
    /// Walker slots this site has donated since stopping.
    donated: usize,
}

impl<T: Transport + Clocked> SiteState<'_, T> {
    /// A trace event about walker `wix`: its site, walker and connection
    /// filled in; callers set whatever else differs.
    fn event(&self, wix: usize, kind: &str, detail: &str, at_ms: u64) -> TraceEvent {
        TraceEvent {
            kind: kind.into(),
            detail: detail.into(),
            site: self.six as u64,
            walker: wix as u64,
            conn: self.walkers[wix].conn.index() as u64,
            at_ms,
            ..TraceEvent::default()
        }
    }
}

/// A harvested completion, processed in completion order.
struct Harvested {
    wix: usize,
    fetch: Fetch,
    result: Result<QueryResponse, InterfaceError>,
}

/// How long one reactor wait inside a stall lasts before the engine
/// re-polls the whole fleet (ms). Short enough that completions on
/// *other* sites' transports — which the wait cannot see — are picked up
/// promptly.
const STALL_WAIT_MS: u64 = 100;

/// Cumulative reactor-wait time on one stalled fetch before the engine
/// falls back to a blocking completion. Liveness backstop for a server
/// that accepts requests and then goes silent: the blocking path's own
/// transport deadline then fails the fetch cleanly instead of the fleet
/// spinning on readiness forever.
const STALL_FORCE_MS: u64 = 30_000;

/// Cross-iteration memory of reactor waits spent on one stalled fetch,
/// keyed by (site, submission seq) — seq is unique per site, so the key
/// never aliases two fetches.
#[derive(Default)]
struct StallTracker {
    key: Option<(usize, u64)>,
    waited_ms: u64,
}

impl StallTracker {
    fn reset(&mut self) {
        self.key = None;
        self.waited_ms = 0;
    }
}

/// Drive every site to `cfg`'s target from the calling thread.
///
/// Each site's walkers share `conns` wire connections round-robin (`None`
/// = one per walker); fewer connections than walkers pipelines several
/// requests per connection — HTTP/1.1 FIFO on real wires, serialized
/// virtual service on simulated ones. With `steal`, finished sites donate
/// their walker slots to the hungriest running site.
///
/// Per-site [`SiteTask`] sinks observe their site's samples in acceptance
/// order; `run_sinks` observe every site's samples in the fleet's global
/// completion order. `trace_sinks` observe cache hit/miss
/// classifications, wire submit/complete spans with their queue/service
/// split, retry backoffs, stall resolutions and work-steals — every
/// timestamp a virtual-clock reading, so a seeded virtual-wire run traces
/// bit-identically. With no trace sinks attached no event is even
/// constructed, and the sample sequence is identical either way.
pub(crate) fn run<T>(
    cfg: &FleetConfig,
    conns: Option<usize>,
    steal: bool,
    sites: &mut [SiteTask<T>],
    run_sinks: &mut [&mut dyn SampleSink],
    trace_sinks: &mut [&mut dyn TraceSink],
) -> FleetReport
where
    T: Transport + AsyncTransport + Clocked,
{
    assert!(conns != Some(0), "need at least one connection per site");
    let mut engine = Engine {
        cfg,
        run_sinks,
        tracer: Tracer::new(trace_sinks),
    };
    let walkers_per_site = cfg.walkers_per_site.max(1);
    let conns_per_site = conns.unwrap_or(walkers_per_site).min(walkers_per_site);

    let mut states: Vec<SiteState<'_, T>> = sites
        .iter_mut()
        .enumerate()
        .map(|(six, task)| {
            let SiteTask {
                name,
                iface,
                sink,
                l2,
            } = task;
            let iface: &WebFormInterface<T> = iface;
            let mut exec = CachingExecutor::new(iface);
            if let Some(log) = l2 {
                exec = exec.with_l2(std::sync::Arc::clone(log));
                engine.trace(|| TraceEvent {
                    kind: "l2".into(),
                    detail: "load".into(),
                    site: six as u64,
                    seq: exec.history_stats().l2_loads,
                    ..TraceEvent::default()
                });
            }
            let conn_ids: Vec<ConnId> = (0..conns_per_site).map(|_| iface.connect()).collect();
            let walkers = (0..walkers_per_site)
                .map(|w| Walker::new(cfg, iface.schema(), six, w, conn_ids[w % conn_ids.len()]))
                .collect();
            SiteState {
                six,
                name,
                iface,
                sink: sink.as_deref_mut(),
                exec,
                walkers,
                samples: SampleSet::new(),
                knowledge_ms: 0,
                connections: conns_per_site,
                stopped: (cfg.target_per_site == 0).then_some(StopReason::TargetReached),
                next_seq: 0,
                steals: 0,
                donated: 0,
            }
        })
        .collect();

    // Kick-off: run every machine until it parks on the wire (or the
    // site finishes straight from history).
    for st in &mut states {
        for wix in 0..st.walkers.len() {
            if st.stopped.is_some() {
                break;
            }
            let step = st.walkers[wix].machine.step();
            engine.advance(st, wix, step);
        }
    }

    let mut stall = StallTracker::default();
    loop {
        let mut progress = false;
        for st in &mut states {
            if st.stopped.is_none() {
                progress |= engine.harvest(st);
            }
        }
        if steal {
            engine.rebalance(&mut states);
        }
        // Checked after the rebalance: a stolen walker can finish the
        // last running site straight from history, leaving nothing in
        // flight for `force_earliest` to resolve.
        if states.iter().all(|st| st.stopped.is_some()) {
            break;
        }
        if progress {
            stall.reset();
        } else {
            // Nothing pollable anywhere: wait for (real wire with a
            // reactor), block on (real wire without one) or advance to
            // (virtual wire) the earliest outstanding completion, keeping
            // the fleet in causal order.
            engine.force_earliest(&mut states, &mut stall);
        }
    }

    let sites: Vec<SiteReport> = states
        .into_iter()
        .map(|st| {
            // Walkers are parked for good; reap their keep-alive sockets.
            st.iface.transport().close_idle();
            let mut stats = SamplerStats::default();
            for w in &st.walkers {
                stats.merge_worker(&w.machine.stats());
            }
            stats.requests = st.exec.requests();
            stats.queries_issued = st.exec.queries_issued();
            stats.retries = st.iface.retries();
            stats.backoff_ms = st.iface.backoff_ms();
            SiteReport {
                name: st.name.to_owned(),
                samples: st.samples,
                requests: stats.requests,
                queries_issued: stats.queries_issued,
                history_hits: st.exec.history_stats().total_hits(),
                elapsed_ms: st.iface.transport().elapsed_ms(),
                retries: stats.retries,
                backoff_vms: stats.backoff_ms,
                steals: st.steals,
                stopped: st
                    .stopped
                    .expect("engine loop ends with every site stopped"),
                stats,
                history: st.exec.history_stats(),
                per_walker_keys: st.walkers.into_iter().map(|w| w.keys).collect(),
                connections: st.connections,
            }
        })
        .collect();
    let fleet_elapsed_ms = sites.iter().map(|r| r.elapsed_ms).max().unwrap_or(0);
    FleetReport {
        sites,
        fleet_elapsed_ms,
    }
}

/// The run-wide half of the engine: the plan's configuration and the
/// sinks every site's walkers report to.
struct Engine<'e, 'r, 't> {
    cfg: &'e FleetConfig,
    run_sinks: &'e mut [&'r mut dyn SampleSink],
    tracer: Tracer<'e, 't>,
}

impl Engine<'_, '_, '_> {
    /// Journal the event `make` builds, if any trace sink is attached;
    /// with none it is never built.
    fn trace(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.tracer.enabled() {
            self.tracer.emit(&make());
        }
    }

    /// Park walker `wix` on `handle`, its fetch of `query` just submitted:
    /// number the fetch and journal its `wire`/`submit`.
    fn park<T>(
        &mut self,
        st: &mut SiteState<'_, T>,
        wix: usize,
        query: ConjunctiveQuery,
        handle: QueryHandle,
    ) where
        T: Transport + AsyncTransport + Clocked,
    {
        let fetch = Fetch {
            query,
            ready_at: handle.ready_at_ms(),
            queued_ms: handle.queued_ms(),
            service_ms: handle.service_ms(),
            seq: st.next_seq,
            span: if self.tracer.enabled() {
                self.tracer.next_span()
            } else {
                0
            },
        };
        st.next_seq += 1;
        let departed = fetch
            .ready_at
            .saturating_sub(fetch.service_ms + fetch.queued_ms);
        self.trace(|| TraceEvent {
            span: fetch.span,
            ..st.event(wix, "wire", "submit", departed)
        });
        st.walkers[wix].pending = Some(Pending { handle, fetch });
    }

    /// Run one walker until it parks on the wire, produces past the site
    /// target, or fails. History hits are consumed inline — they cost no
    /// wire time, only a causal floor on the walker's clock. Accepted
    /// samples stream into the site's sink and the run-level sinks at the
    /// moment they are collected.
    fn advance<T>(&mut self, st: &mut SiteState<'_, T>, wix: usize, mut step: WalkStep)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        loop {
            if st.stopped.is_some() {
                return;
            }
            match step {
                WalkStep::NeedCount(query) => {
                    if let Some(hit) = st.exec.try_classify_stamped(&query) {
                        // Resumed from history without touching the wire.
                        // The fact may derive from a completion on another
                        // connection; floor this walker's clock at the
                        // *answering fact's* learn time — the exact causal
                        // floor — so its next wire request cannot depart
                        // before its cause. Facts loaded from L2 predate
                        // the run and floor at 0: a warm-started walker
                        // pays no phantom wait for knowledge it had before
                        // the first fetch departed.
                        st.iface
                            .transport()
                            .observe_now(st.walkers[wix].conn, hit.learned_at);
                        if hit.tier == HitTier::L2 {
                            self.trace(|| st.event(wix, "l2", "hit", hit.learned_at));
                        }
                        self.trace(|| st.event(wix, "cache", "hit", hit.learned_at));
                        step = st.walkers[wix].machine.resume(Ok(hit.answer));
                    } else {
                        if st.exec.l2_log().is_some() {
                            self.trace(|| st.event(wix, "l2", "miss", st.knowledge_ms));
                        }
                        self.trace(|| st.event(wix, "cache", "miss", st.knowledge_ms));
                        let handle = st.iface.submit_query(st.walkers[wix].conn, &query);
                        self.park(st, wix, query, handle);
                        return;
                    }
                }
                WalkStep::Sample(s) => {
                    st.walkers[wix].keys.push(s.row.key);
                    // Sample and walk events name no connection.
                    self.trace(|| TraceEvent {
                        conn: 0,
                        seq: st.samples.len() as u64 + 1,
                        ..st.event(wix, "sample", "", st.knowledge_ms)
                    });
                    let ev = SampleEvent {
                        sample: &s,
                        site: st.six,
                        walker: wix,
                        collected: st.samples.len() + 1,
                        target: self.cfg.target_per_site,
                        queries: st.exec.queries_issued(),
                        requests: st.exec.requests(),
                    };
                    if let Some(sink) = st.sink.as_deref_mut() {
                        sink.observe(&ev);
                    }
                    for sink in self.run_sinks.iter_mut() {
                        sink.observe(&ev);
                    }
                    st.samples.push(s);
                    if st.samples.len() >= self.cfg.target_per_site {
                        stop_site(st, StopReason::TargetReached);
                        return;
                    }
                    step = st.walkers[wix].machine.step();
                }
                WalkStep::Failed(e) => {
                    self.trace(|| TraceEvent {
                        conn: 0,
                        ..st.event(wix, "walk", "failed", st.knowledge_ms)
                    });
                    let reason = match e {
                        SamplerError::BudgetExhausted { .. } => StopReason::BudgetExhausted,
                        other => StopReason::Failed(other),
                    };
                    stop_site(st, reason);
                    return;
                }
            }
        }
    }

    /// Poll this site's parked walkers, one pass per *connection*, and
    /// resume the completed ones in completion order. Returns whether
    /// anything completed.
    ///
    /// Requests on one connection resolve FIFO (HTTP/1.1 pipelining; the
    /// virtual clocks serialize identically), so walkers are visited in
    /// submission order per connection and a connection is abandoned for
    /// the sweep at its first still-pending fetch — later fetches cannot
    /// be ready, and re-polling them would re-drain an already-drained
    /// socket once per walker instead of once per connection.
    fn harvest<T>(&mut self, st: &mut SiteState<'_, T>) -> bool
    where
        T: Transport + AsyncTransport + Clocked,
    {
        // Release real-wire backoffs whose waits have elapsed — the
        // resubmission parks the walker again, so it joins this sweep's
        // polls.
        let mut released = false;
        for wix in 0..st.walkers.len() {
            let due = st.walkers[wix]
                .backoff
                .as_ref()
                .is_some_and(|b| std::time::Instant::now() >= b.release_at);
            if due {
                self.release_backoff(st, wix);
                released = true;
            }
        }

        let mut parked: Vec<usize> = (0..st.walkers.len())
            .filter(|&wix| st.walkers[wix].pending.is_some())
            .collect();
        parked.sort_by_key(|&wix| {
            let p = st.walkers[wix].pending.as_ref().expect("filtered parked");
            (st.walkers[wix].conn.index(), p.fetch.seq)
        });

        let mut ready: Vec<Harvested> = Vec::new();
        let mut skip_conn: Option<usize> = None;
        for wix in parked {
            let conn_ix = st.walkers[wix].conn.index();
            if skip_conn == Some(conn_ix) {
                continue;
            }
            let Pending { handle, fetch } = st.walkers[wix].pending.take().expect("parked");
            match st.iface.poll_query(handle) {
                QueryPoll::Pending(handle) => {
                    st.walkers[wix].pending = Some(Pending { handle, fetch });
                    skip_conn = Some(conn_ix);
                }
                QueryPoll::Ready(result) => ready.push(Harvested { wix, fetch, result }),
            }
        }
        if ready.is_empty() {
            return released;
        }
        // Completion order keeps the knowledge clock honest: a resume only
        // ever sees facts learned at or before its own floor.
        ready.sort_by_key(|h| (h.fetch.ready_at, h.fetch.seq));
        for h in ready {
            self.finish_fetch(st, h);
        }
        true
    }

    /// Resubmit a walker whose retry backoff has elapsed (real wires
    /// only): same logical query, new fetch, no new query charge.
    fn release_backoff<T>(&mut self, st: &mut SiteState<'_, T>, wix: usize)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        let b = st.walkers[wix].backoff.take().expect("backing off");
        let handle = st.iface.resubmit_query(st.walkers[wix].conn, &b.query);
        self.park(st, wix, b.query, handle);
    }

    /// Feed one wire completion back: teach the cache, then run the
    /// owning walker until it parks again.
    fn finish_fetch<T>(&mut self, st: &mut SiteState<'_, T>, h: Harvested)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        let Harvested { wix, fetch, result } = h;
        st.knowledge_ms = st.knowledge_ms.max(fetch.ready_at);
        if st.stopped.is_some() {
            // The site finished while this page was in flight; the fetch
            // was charged either way — only the result is discarded.
            return;
        }
        self.trace(|| TraceEvent {
            span: fetch.span,
            dur_ms: fetch.queued_ms + fetch.service_ms,
            queue_ms: fetch.queued_ms,
            ..st.event(wix, "wire", "complete", fetch.ready_at)
        });
        let answer = match result {
            Ok(resp) => {
                st.walkers[wix].attempts = 0;
                let classified = Classified::from_response(resp);
                // Stamp the fact with its wire completion time: that is
                // the instant the knowledge came into being, and the
                // exact causal floor for any walker that later consumes
                // it from history.
                st.exec
                    .record_response_at(&fetch.query, &classified, fetch.ready_at);
                if st.exec.l2_log().is_some() {
                    self.trace(|| TraceEvent {
                        span: fetch.span,
                        ..st.event(wix, "l2", "put", fetch.ready_at)
                    });
                }
                Ok(classified)
            }
            Err(e) => {
                let policy = st.iface.retry_policy();
                if e.is_transient() && st.walkers[wix].attempts < policy.max_retries {
                    // Retry instead of failing the walk: back off for the
                    // server-advertised interval (or the policy's
                    // exponential schedule) and resubmit the same logical
                    // query. The retry is charged to the interface's
                    // retry/backoff counters, never as a new query.
                    let wait = policy.backoff_ms(st.walkers[wix].attempts, e.retry_after_ms());
                    st.walkers[wix].attempts += 1;
                    st.iface.note_retry(wait);
                    self.trace(|| TraceEvent {
                        span: fetch.span,
                        dur_ms: wait,
                        ..st.event(wix, "retry", "backoff", fetch.ready_at)
                    });
                    let conn = st.walkers[wix].conn;
                    if st.iface.wire_is_virtual() {
                        // Bill the wait by flooring the walker's connection
                        // clock at the release time, then resubmit now —
                        // virtual time jumps forward for free.
                        st.iface
                            .transport()
                            .observe_now(conn, fetch.ready_at.saturating_add(wait));
                        let handle = st.iface.resubmit_query(conn, &fetch.query);
                        self.park(st, wix, fetch.query, handle);
                    } else {
                        // A real server means a real wait: park the walker
                        // until the interval has genuinely elapsed.
                        st.walkers[wix].backoff = Some(Backoff {
                            query: fetch.query,
                            release_at: std::time::Instant::now()
                                + std::time::Duration::from_millis(wait),
                        });
                    }
                    return;
                }
                st.walkers[wix].attempts = 0;
                Err(e)
            }
        };
        let step = st.walkers[wix].machine.resume(answer);
        self.advance(st, wix, step);
    }

    /// Resolve the causally-earliest outstanding fetch fleet-wide (min
    /// virtual completion time, then submission order).
    ///
    /// On a virtual wire the only way forward is a blocking
    /// `complete_query` — completions live one clock advance away. On a
    /// live wire with a readiness reactor the engine instead parks in one
    /// `epoll_wait` across all of the stalled site's connections and lets
    /// the next harvest pass take whatever completed first; the blocking
    /// completion survives only as the [`STALL_FORCE_MS`] liveness
    /// fallback against a silent server.
    fn force_earliest<T>(&mut self, states: &mut [SiteState<'_, T>], stall: &mut StallTracker)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        let mut best: Option<(usize, usize, u64, u64)> = None;
        for (six, st) in states.iter().enumerate() {
            if st.stopped.is_some() {
                continue;
            }
            for (wix, w) in st.walkers.iter().enumerate() {
                if let Some(p) = &w.pending {
                    let at = (p.fetch.ready_at, p.fetch.seq);
                    if best.is_none_or(|(_, _, ra, sq)| at < (ra, sq)) {
                        best = Some((six, wix, at.0, at.1));
                    }
                }
            }
        }
        let Some((six, wix, _ready_at, seq)) = best else {
            // No fetch in flight anywhere: every unstopped site's walkers
            // are waiting out retry backoffs on a real wire. Sleep to the
            // earliest release and resubmit that walker.
            let mut due: Option<(usize, usize, std::time::Instant)> = None;
            for (six, st) in states.iter().enumerate() {
                if st.stopped.is_some() {
                    continue;
                }
                for (wix, w) in st.walkers.iter().enumerate() {
                    if let Some(b) = &w.backoff {
                        if due.is_none_or(|(.., at)| b.release_at < at) {
                            due = Some((six, wix, b.release_at));
                        }
                    }
                }
            }
            let Some((six, wix, at)) = due else {
                unreachable!("an unstopped site always has a parked or backing-off walker");
            };
            let now = std::time::Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            self.release_backoff(&mut states[six], wix);
            return;
        };
        let key = (six, seq);
        let st = &mut states[six];
        let exhausted = stall.key == Some(key) && stall.waited_ms >= STALL_FORCE_MS;
        if !exhausted && !st.iface.wire_is_virtual() {
            let started = std::time::Instant::now();
            if st.iface.wait_ready(STALL_WAIT_MS).is_some() {
                let waited = (started.elapsed().as_millis() as u64).max(1);
                if stall.key == Some(key) {
                    stall.waited_ms += waited;
                } else {
                    stall.key = Some(key);
                    stall.waited_ms = waited;
                }
                let p = st.walkers[wix].pending.as_ref().expect("parked");
                self.trace(|| TraceEvent {
                    span: p.fetch.span,
                    dur_ms: waited,
                    ..st.event(wix, "stall", "wait", p.fetch.ready_at)
                });
                return;
            }
        }
        stall.reset();
        let Pending { handle, fetch } = st.walkers[wix].pending.take().expect("parked");
        self.trace(|| TraceEvent {
            span: fetch.span,
            ..st.event(wix, "stall", "force", fetch.ready_at)
        });
        let result = st.iface.complete_query(handle);
        self.finish_fetch(st, Harvested { wix, fetch, result });
    }

    /// Donate finished sites' walker slots to the hungriest running
    /// sites. Each freed slot spawns one fresh seeded machine on a fresh
    /// connection of the receiving site, floored at `max(receiver
    /// knowledge, donor elapsed)` — the stolen walker cannot pretend to
    /// have started before the donor actually freed it.
    fn rebalance<T>(&mut self, states: &mut [SiteState<'_, T>])
    where
        T: Transport + AsyncTransport + Clocked,
    {
        // Newly-freed slots, each carrying its donor's elapsed time.
        let mut free: Vec<u64> = Vec::new();
        for st in states.iter_mut() {
            if st.stopped.is_some() && st.donated < st.walkers.len() {
                let elapsed = st.iface.transport().elapsed_ms();
                free.resize(free.len() + st.walkers.len() - st.donated, elapsed);
                st.donated = st.walkers.len();
            }
        }
        let target = self.cfg.target_per_site;
        for donor_elapsed in free {
            // The hungriest site: most samples still to collect.
            let Some(st) = states
                .iter_mut()
                .filter(|st| st.stopped.is_none())
                .max_by_key(|st| target.saturating_sub(st.samples.len()))
            else {
                return;
            };
            let wix = st.walkers.len();
            let conn = st.iface.connect();
            let floor = st.knowledge_ms.max(donor_elapsed);
            st.iface.transport().observe_now(conn, floor);
            st.walkers
                .push(Walker::new(self.cfg, st.iface.schema(), st.six, wix, conn));
            st.connections += 1;
            st.steals += 1;
            self.trace(|| st.event(wix, "steal", "grant", floor));
            let step = st.walkers[wix].machine.step();
            self.advance(st, wix, step);
        }
    }
}

/// End a site: record why and cancel every in-flight fetch (the pages
/// were charged; only their buffered results are released).
fn stop_site<T>(st: &mut SiteState<'_, T>, reason: StopReason)
where
    T: Transport + AsyncTransport + Clocked,
{
    st.stopped = Some(reason);
    for w in &mut st.walkers {
        if let Some(p) = w.pending.take() {
            st.iface.cancel_query(p.handle);
        }
        w.backoff = None;
        w.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Driver, RunPlan};
    use crate::transport::{LatencyTransport, LocalSite};
    use hdsampler_core::{DirectExecutor, HdsSampler, Sampler};
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_workload::figure1_db;
    use std::sync::Arc;

    fn figure1_task(
        name: &str,
        latency_ms: u64,
    ) -> SiteTask<LatencyTransport<LocalSite<HiddenDb>>> {
        let db = figure1_db(1);
        let schema = Arc::new(db.schema().clone());
        let site = LocalSite::new(db, Arc::clone(&schema));
        let wire = LatencyTransport::new(site, latency_ms);
        SiteTask::new(name, WebFormInterface::new(wire, schema, 1, false))
    }

    fn vehicles_task(
        name: &str,
        seed: u64,
        latency_ms: u64,
        budget: Option<u64>,
    ) -> SiteTask<LatencyTransport<LocalSite<HiddenDb>>> {
        use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};
        let mut db_cfg = DbConfig::no_counts().with_k(50);
        if let Some(b) = budget {
            db_cfg = db_cfg.with_budget(b);
        }
        let db = WorkloadSpec::vehicles(VehiclesSpec::compact(500, seed), db_cfg).build();
        let schema = Arc::new(db.schema().clone());
        let k = db.result_limit();
        let site = LocalSite::new(db, Arc::clone(&schema));
        let wire = LatencyTransport::new(site, latency_ms);
        SiteTask::new(name, WebFormInterface::new(wire, schema, k, false))
    }

    #[test]
    fn coop_driver_reaches_targets_on_one_thread() {
        let mut sites: Vec<_> = (0..3)
            .map(|i| vehicles_task(&format!("s{i}"), 90 + i as u64, 100, None))
            .collect();
        let report = RunPlan::target(40)
            .walkers(4)
            .seed(11)
            .run(&mut sites)
            .fleet;
        assert_eq!(report.total_samples(), 120);
        for site in &report.sites {
            assert_eq!(site.stopped, StopReason::TargetReached);
            assert_eq!(site.connections, 4);
            assert_eq!(
                site.per_walker_keys.iter().map(Vec::len).sum::<usize>(),
                site.samples.len(),
                "every sample is attributed to exactly one walker"
            );
            assert!(site.requests >= site.queries_issued);
        }
        assert_eq!(
            report.fleet_elapsed_ms,
            report.sites.iter().map(|s| s.elapsed_ms).max().unwrap(),
            "coop fleet time is the max over sites"
        );
    }

    #[test]
    fn per_walker_sequences_match_the_thread_walker_sampler() {
        // Walker (s, w) must produce the identical seeded sample sequence
        // under the cooperative driver and under a standalone HdsSampler
        // with the same FleetConfig::walker_config seed.
        let cfg = FleetConfig {
            walkers_per_site: 3,
            target_per_site: 45,
            seed: 77,
            slider: 0.2,
            ..FleetConfig::default()
        };
        let mut sites = vec![vehicles_task("seq", 5, 50, None)];
        let report = RunPlan::target(45)
            .walkers(3)
            .seed(77)
            .slider(0.2)
            .run(&mut sites);
        let per_walker = &report.site().per_walker_keys;
        assert!(per_walker.iter().any(|k| !k.is_empty()));

        for (w, keys) in per_walker.iter().enumerate() {
            // A fresh in-process twin with the same data seed.
            let twin = vehicles_task("twin", 5, 50, None);
            let mut reference =
                HdsSampler::new(DirectExecutor::new(&twin.iface), cfg.walker_config(0, w)).unwrap();
            let expect: Vec<u64> = (0..keys.len())
                .map(|_| reference.next_sample().unwrap().row.key)
                .collect();
            assert_eq!(keys, &expect, "walker {w} diverged from its seed");
        }
    }

    #[test]
    fn shared_connections_pipeline_and_serialize() {
        // 8 walkers on 2 connections: requests pipeline 4-deep per
        // connection; the virtual elapsed must exceed a single RTT (they
        // serialize per connection) but be far below the serial sum.
        let mut sites = vec![figure1_task("pipe", 100)];
        let report = RunPlan::target(32)
            .walkers(8)
            .seed(3)
            .driver(Driver::Coop { conns: Some(2) })
            .run(&mut sites)
            .fleet;
        assert_eq!(report.sites[0].connections, 2);
        assert_eq!(report.total_samples(), 32);
        let site = &report.sites[0];
        assert!(site.elapsed_ms >= 100);
        // 2 connections must not be slower than 2 serial walkers' worth.
        let serial_bound = site.queries_issued * 100 / 2 + 100;
        assert!(
            site.elapsed_ms <= serial_bound,
            "pipelining must overlap: {} vs {serial_bound}",
            site.elapsed_ms
        );
    }

    #[test]
    fn budget_exhaustion_stops_a_site_with_partial_results() {
        let plan = |target| RunPlan::target(target).walkers(4).seed(5);
        let mut sites = [
            vehicles_task("starved", 1, 50, Some(60)),
            vehicles_task("ok", 2, 50, None),
        ];
        // Drive the starved site alone first (mixed targets need two
        // runs; a plan applies one target fleet-wide).
        let report = plan(10_000).run(&mut sites[..1]).fleet;
        assert_eq!(report.sites[0].stopped, StopReason::BudgetExhausted);
        assert!(report.sites[0].samples.len() < 10_000);
        assert!(
            !report.sites[0].samples.is_empty(),
            "partial results survive"
        );
        // A healthy site is unaffected by the starved one's existence.
        let report = plan(25).run(&mut sites[1..]).fleet;
        assert_eq!(report.sites[0].stopped, StopReason::TargetReached);
    }

    #[test]
    fn warm_history_resumes_without_touching_the_wire() {
        // Figure 1 has 8 possible queries; after a warm-up pass the cache
        // can answer whole walks. Charged fetches must plateau while
        // samples keep flowing — the "history hits resume immediately"
        // half of the design.
        let mut sites = vec![figure1_task("warm", 100)];
        let report = RunPlan::target(200).walkers(2).seed(13).run(&mut sites);
        let site = report.site();
        assert_eq!(site.samples.len(), 200);
        assert!(
            site.history_hits > site.queries_issued,
            "a tiny site must be answered mostly from history: {} hits vs {} fetches",
            site.history_hits,
            site.queries_issued
        );
        // All 200 samples in far fewer round trips than walks.
        assert!(site.queries_issued < 100);
    }

    fn chaos_task(
        name: &str,
        db_seed: u64,
        spec: crate::chaos::ChaosSpec,
    ) -> SiteTask<crate::chaos::ChaosTransport<LocalSite<HiddenDb>>> {
        use crate::chaos::{ChaosTransport, RetryPolicy};
        use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};
        let db = WorkloadSpec::vehicles(
            VehiclesSpec::compact(500, db_seed),
            DbConfig::no_counts().with_k(50),
        )
        .build();
        let schema = Arc::new(db.schema().clone());
        let k = db.result_limit();
        let site = LocalSite::new(db, Arc::clone(&schema));
        let wire = ChaosTransport::new(site, spec);
        SiteTask::new(
            name,
            WebFormInterface::new(wire, schema, k, false).with_retry(RetryPolicy {
                max_retries: 12,
                base_backoff_ms: 25,
                max_backoff_ms: 800,
            }),
        )
    }

    #[test]
    fn backoff_rides_out_a_hostile_site() {
        use crate::chaos::ChaosSpec;
        const WALKERS: u64 = 3;
        let spec = ChaosSpec {
            seed: 1,
            latency_ms: 20,
            throttle: 0.25,
            retry_after_ms: 100,
            fail: 0.1,
            drop: 0.05,
            ..ChaosSpec::default()
        };
        let run = || {
            let mut sites = vec![chaos_task("hostile", 77, spec.clone())];
            let report = RunPlan::target(40)
                .walkers(WALKERS as usize)
                .seed(9)
                .run(&mut sites)
                .fleet;
            let counters = sites[0].iface.transport().counters();
            (report, counters)
        };
        let (report, counters) = run();
        let site = &report.sites[0];
        assert_eq!(site.stopped, StopReason::TargetReached);
        assert_eq!(site.samples.len(), 40);
        assert!(
            counters.throttles > 0 && counters.transient_fails > 0 && counters.drops > 0,
            "every enabled fault class fired: {counters:?}"
        );
        // Every fault is retried exactly once, except faults on fetches
        // still in flight when the target landed (discarded, ≤ 1/walker).
        let faults = counters.throttles + counters.transient_fails + counters.drops;
        assert!(
            site.retries <= faults && site.retries + WALKERS >= faults,
            "retries {} vs faults {faults}",
            site.retries
        );
        assert!(site.backoff_vms > 0, "backoff time is billed");
        assert_eq!(site.stats.retries, site.retries);
        assert_eq!(site.stats.backoff_ms, site.backoff_vms);
        // Backoff is billed on the connection clocks: elapsed (max over
        // connections) is at least the per-connection share of the total.
        assert!(
            site.elapsed_ms >= site.backoff_vms / WALKERS,
            "virtual backoff appears on the wire clock: {} vs {}",
            site.elapsed_ms,
            site.backoff_vms
        );
        // Chaos is a pure function of (seed, request index) and the driver
        // is deterministic: the whole run replays identically.
        let (again, counters_again) = run();
        assert_eq!(counters, counters_again);
        assert_eq!(again.sites[0].retries, site.retries);
        assert_eq!(
            again.sites[0].samples.keys(),
            site.samples.keys(),
            "same seed, same samples — faults and all"
        );
    }

    #[test]
    fn stealing_reassigns_finished_sites_walkers() {
        use crate::chaos::ChaosSpec;
        let throttled = ChaosSpec {
            seed: 5,
            latency_ms: 40,
            throttle: 0.4,
            retry_after_ms: 400,
            ..ChaosSpec::default()
        };
        let clean = ChaosSpec {
            latency_ms: 40,
            ..ChaosSpec::default()
        };
        let run = |steal: bool| {
            let mut sites = vec![
                chaos_task("fast", 31, clean.clone()),
                chaos_task("slow", 32, throttled.clone()),
            ];
            RunPlan::target(60)
                .walkers(4)
                .seed(2)
                .steal(steal)
                .run(&mut sites)
                .fleet
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(with.total_samples(), 120);
        assert_eq!(without.total_samples(), 120);
        assert!(
            with.sites[1].steals > 0,
            "the finished fast site donates its walkers to the throttled one"
        );
        assert_eq!(with.sites[0].steals, 0, "the donor steals nothing");
        assert_eq!(without.total_steals(), 0, "stealing is opt-in");
        assert!(
            with.fleet_elapsed_ms < without.fleet_elapsed_ms,
            "extra walkers must shorten the throttled tail: {} vs {}",
            with.fleet_elapsed_ms,
            without.fleet_elapsed_ms
        );
    }

    #[test]
    fn stolen_walker_finishing_the_last_site_ends_the_run() {
        // Regression: the loop decided "every site stopped" before the
        // rebalance. When a freshly stolen walker then finished the last
        // running site straight from history, and the harvest pass had
        // made no progress, `force_earliest` found nothing in flight and
        // hit `unreachable!`. Four 16-walker sites sharing 4 connections
        // each, sites 0 and 2 heavily throttled, stealing on: the job seed
        // below panicked before the fix.
        use crate::chaos::{ChaosSpec, ChaosTransport, RetryPolicy};
        use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};
        let job_seed = (1u64 << 20) + 15;
        let mut sites: Vec<_> = (0..4u64)
            .map(|i| {
                let db = WorkloadSpec::vehicles(
                    VehiclesSpec::compact(5_000, 90 + i),
                    DbConfig::no_counts().with_k(100),
                )
                .build();
                let schema = Arc::new(db.schema().clone());
                let spec = if i % 2 == 0 {
                    ChaosSpec {
                        seed: job_seed.wrapping_mul(4).wrapping_add(i),
                        latency_ms: 40,
                        throttle: 0.5,
                        retry_after_ms: 600,
                        fail: 0.05,
                        drop: 0.03,
                        ..ChaosSpec::default()
                    }
                } else {
                    ChaosSpec {
                        latency_ms: 40,
                        ..ChaosSpec::default()
                    }
                };
                let wire = ChaosTransport::new(LocalSite::new(db, Arc::clone(&schema)), spec);
                let iface =
                    WebFormInterface::new(wire, schema, 100, false).with_retry(RetryPolicy {
                        max_retries: 20,
                        base_backoff_ms: 25,
                        max_backoff_ms: 600,
                    });
                SiteTask::new(format!("site-{i}"), iface)
            })
            .collect();
        let report = RunPlan::target(30)
            .walkers(16)
            .seed(job_seed)
            .slider(0.4)
            .driver(Driver::Coop { conns: Some(4) })
            .steal(true)
            .run(&mut sites)
            .fleet;
        assert_eq!(report.total_samples(), 4 * 30);
        for site in &report.sites {
            assert_eq!(site.stopped, StopReason::TargetReached, "{}", site.name);
        }
    }

    #[test]
    fn empty_scope_fails_the_site() {
        use hdsampler_model::AttrId;
        let mut sites = vec![figure1_task("empty", 10)];
        let report = RunPlan::target(10)
            .walkers(2)
            .seed(1)
            .scope(ConjunctiveQuery::from_pairs([(AttrId(0), 1), (AttrId(1), 0)]).unwrap())
            .run(&mut sites);
        assert!(matches!(
            report.site().stopped,
            StopReason::Failed(SamplerError::EmptyScope)
        ));
        assert!(report.site().samples.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Property: across random seeds, walker counts and latencies the
        /// coop driver's virtual elapsed time respects the wire's
        /// serialization bounds — no fetch is billed into the past. (The
        /// departure-level causality property lives in
        /// `tests/causality_properties.rs` against the transport itself.)
        #[test]
        fn coop_elapsed_respects_serialization_bounds(
            seed in 0u64..500,
            walkers in 1usize..6,
            latency in 20u64..200,
        ) {
            let mut sites = vec![vehicles_task("p", seed ^ 0xABCD, latency, None)];
            let report = RunPlan::target(30).walkers(walkers).seed(seed).run(&mut sites);
            let site = report.site();
            proptest::prop_assert!(site.samples.len() == 30);
            if site.queries_issued > 0 {
                // At least one full round trip on the critical path, and
                // at least the most-loaded connection's serial chain of
                // *completed* fetches (up to one in-flight fetch per
                // walker is charged but cancelled when the target lands,
                // and a cancelled fetch advances no clock).
                proptest::prop_assert!(site.elapsed_ms >= latency);
                let completed = site.queries_issued.saturating_sub(walkers as u64);
                let per_conn_lower = latency * completed.div_ceil(walkers as u64);
                proptest::prop_assert!(
                    site.elapsed_ms >= per_conn_lower,
                    "elapsed {} below the per-connection serialization bound {}",
                    site.elapsed_ms,
                    per_conn_lower
                );
            }
        }
    }
}
