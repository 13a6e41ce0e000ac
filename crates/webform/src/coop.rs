//! [`CoopDriver`]: one OS thread, hundreds of in-flight form submissions.
//!
//! This is the engine behind every [`RunPlan`](crate::plan::RunPlan), from
//! a one-site, one-walker `sample` session to a many-site adversarial
//! fleet. The paper's cost model is round trips, so a scraper's
//! throughput question is how many submissions it keeps in flight.
//! Spending one OS thread per walker caps that at "how many stacks fit";
//! parking each walker's state machine caps it at memory.
//!
//! The driver multiplexes. Every walker is a
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
//!   completion order; when nothing is ready, the driver blocks on (or,
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
//! connections — see [`crate::chaos`]) the driver retries instead of
//! failing the site: a transiently-failed fetch parks its walker in
//! *backoff* for the server-advertised `Retry-After` (or an exponential
//! schedule from the interface's [`RetryPolicy`](crate::chaos::RetryPolicy))
//! and resubmits the same logical query afterwards. On virtual wires the
//! wait is billed by flooring the walker's connection clock — no real time
//! passes; on real wires the walker genuinely waits out the interval while
//! the rest of the fleet keeps harvesting. Retries are charged to separate
//! `retries`/`backoff_vms` counters, never as extra logical queries.
//!
//! With [`CoopDriver::with_stealing`] enabled, sites that finish early
//! donate their walker slots to the hungriest still-running site: a fresh
//! seeded machine is spawned on a fresh connection whose clock is floored
//! at `max(receiver knowledge, donor elapsed)` — the stolen walker cannot
//! pretend to have started before the donor actually freed it. Stealing is
//! a data-structure move (a `Walker` pushed onto another site's vector),
//! not a thread handoff.

use hdsampler_core::{
    CachingExecutor, Classified, HitTier, QueryExecutor, SampleEvent, SampleSet, SampleSink,
    SamplerError, SamplerStats, StopReason, TraceEvent, TraceSink, Tracer, WalkMachine, WalkStep,
};
use hdsampler_model::{ConjunctiveQuery, FormInterface, InterfaceError, QueryResponse};

use crate::adapter::{QueryHandle, QueryPoll, WebFormInterface};
use crate::aio::{AsyncTransport, ConnId};
use crate::driver::{FleetConfig, FleetReport, SiteReport, SiteTask};
use crate::transport::{Clocked, Transport};

/// One in-flight fetch a walker is parked on.
struct Pending {
    handle: QueryHandle,
    query: ConjunctiveQuery,
    /// Virtual completion time (0 on real wires).
    ready_at: u64,
    /// Site-wide submission sequence number (completion-order tie-break).
    seq: u64,
    /// Trace span id tying the submit event to its completion (0 when
    /// tracing is off).
    span: u64,
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

/// A harvested completion, processed in completion order.
struct Harvested {
    wix: usize,
    query: ConjunctiveQuery,
    ready_at: u64,
    seq: u64,
    span: u64,
    /// Wire wait spent queued behind earlier requests on the connection.
    queued_ms: u64,
    /// Wire service time of the fetch itself.
    service_ms: u64,
    result: Result<QueryResponse, InterfaceError>,
}

/// Per-site walker detail of a run.
#[derive(Debug)]
pub struct CoopSiteDetail {
    /// Each walker's sample keys in production order — deterministic per
    /// (seed, site, walker), and identical to what a standalone
    /// [`HdsSampler`](hdsampler_core::HdsSampler) with the same seed
    /// produces.
    pub per_walker_keys: Vec<Vec<u64>>,
    /// Wire connections the site's walkers shared.
    pub connections: usize,
    /// Merged walker statistics (executor-view counters from the site's
    /// shared cache).
    pub stats: SamplerStats,
}

/// How long one reactor wait inside a stall lasts before the driver
/// re-polls the whole fleet (ms). Short enough that completions on
/// *other* sites' transports — which the wait cannot see — are picked up
/// promptly.
const STALL_WAIT_MS: u64 = 100;

/// Cumulative reactor-wait time on one stalled fetch before the driver
/// falls back to a blocking completion. Liveness backstop for a server
/// that accepts requests and then goes silent: the blocking path's own
/// transport deadline then fails the fetch cleanly instead of the fleet
/// spinning on readiness forever.
const STALL_FORCE_MS: u64 = 30_000;

/// Cross-iteration memory of reactor waits spent on one stalled fetch,
/// keyed by (site, submission seq) — seq is unique per site, so the key
/// never aliases two fetches.
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

/// Drives S sites × W walker machines from a single thread.
#[derive(Debug)]
pub struct CoopDriver {
    cfg: FleetConfig,
    conns_per_site: Option<usize>,
    steal: bool,
}

impl CoopDriver {
    /// Cooperative driver with the given fleet configuration. By default
    /// every walker rides its own connection and work-stealing is off.
    pub fn new(cfg: FleetConfig) -> Self {
        CoopDriver {
            cfg,
            conns_per_site: None,
            steal: false,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Enable cross-site work-stealing: when a site finishes (target
    /// reached, budget exhausted, or failed), its walker slots are donated
    /// to the hungriest still-running site. Each stolen slot spawns a
    /// fresh seeded [`WalkMachine`] on a fresh connection floored at
    /// `max(receiver knowledge, donor elapsed)`, and bumps the receiving
    /// site's `steals` counter.
    pub fn with_stealing(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Share `conns` wire connections per site among the walkers
    /// (round-robin). Fewer connections than walkers pipelines several
    /// requests per connection — HTTP/1.1 FIFO on real wires, serialized
    /// virtual service on simulated ones.
    pub fn with_connections(mut self, conns: usize) -> Self {
        assert!(conns >= 1, "need at least one connection per site");
        self.conns_per_site = Some(conns);
        self
    }

    /// Drive every site to its target from the calling thread.
    pub fn run<T>(&self, sites: &mut [SiteTask<T>]) -> FleetReport
    where
        T: Transport + AsyncTransport + Clocked,
    {
        self.run_observed(sites, &mut []).0
    }

    /// [`CoopDriver::run`], also returning per-walker detail.
    pub fn run_with_details<T>(
        &self,
        sites: &mut [SiteTask<T>],
    ) -> (FleetReport, Vec<CoopSiteDetail>)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        self.run_observed(sites, &mut [])
    }

    /// [`CoopDriver::run`] with streaming observation. Per-site
    /// [`SiteTask`] sinks observe their site's samples in acceptance
    /// order; `run_sinks` observe every site's samples in the fleet's
    /// global completion order. The driver is single-threaded, so the
    /// run-level sinks are observed directly — no forking.
    pub fn run_observed<T>(
        &self,
        sites: &mut [SiteTask<T>],
        run_sinks: &mut [&mut dyn SampleSink],
    ) -> (FleetReport, Vec<CoopSiteDetail>)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        self.run_traced(sites, run_sinks, &mut [])
    }

    /// [`CoopDriver::run_observed`], additionally emitting a
    /// [`TraceEvent`] stream into `trace_sinks`: cache hit/miss
    /// classifications, wire submit/complete spans with their
    /// queue/service split, retry backoffs, stall resolutions and
    /// work-steals — every timestamp a virtual-clock reading, so a
    /// seeded virtual-wire run traces bit-identically. With no trace
    /// sinks attached no event is even constructed, and the sample
    /// sequence is identical either way.
    pub fn run_traced<T>(
        &self,
        sites: &mut [SiteTask<T>],
        run_sinks: &mut [&mut dyn SampleSink],
        trace_sinks: &mut [&mut dyn TraceSink],
    ) -> (FleetReport, Vec<CoopSiteDetail>)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        let mut tracer = Tracer::new(trace_sinks);
        let walkers_per_site = self.cfg.walkers_per_site.max(1);
        let conns_per_site = self
            .conns_per_site
            .unwrap_or(walkers_per_site)
            .min(walkers_per_site);

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
                    if tracer.enabled() {
                        tracer.emit(&TraceEvent {
                            kind: "l2".into(),
                            detail: "load".into(),
                            site: six as u64,
                            seq: exec.history_stats().l2_loads,
                            ..TraceEvent::default()
                        });
                    }
                }
                let conn_ids: Vec<ConnId> = (0..conns_per_site).map(|_| iface.connect()).collect();
                let walkers = (0..walkers_per_site)
                    .map(|w| Walker {
                        machine: WalkMachine::new(iface.schema(), self.cfg.walker_config(six, w))
                            .expect("fleet walker configuration is valid"),
                        conn: conn_ids[w % conn_ids.len()],
                        pending: None,
                        backoff: None,
                        attempts: 0,
                        keys: Vec::new(),
                    })
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
                    stopped: if self.cfg.target_per_site == 0 {
                        Some(StopReason::TargetReached)
                    } else {
                        None
                    },
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
                self.advance(st, wix, step, run_sinks, &mut tracer);
            }
        }

        let mut stall = StallTracker {
            key: None,
            waited_ms: 0,
        };
        loop {
            let mut progress = false;
            for st in &mut states {
                if st.stopped.is_none() {
                    progress |= self.harvest(st, run_sinks, &mut tracer);
                }
            }
            if self.steal {
                self.rebalance(&mut states, run_sinks, &mut tracer);
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
                // reactor), block on (real wire without one) or advance
                // to (virtual wire) the earliest outstanding completion,
                // keeping the fleet in causal order.
                self.force_earliest(&mut states, run_sinks, &mut tracer, &mut stall);
            }
        }

        let mut reports = Vec::with_capacity(states.len());
        let mut details = Vec::with_capacity(states.len());
        for st in states {
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
            details.push(CoopSiteDetail {
                per_walker_keys: st.walkers.into_iter().map(|w| w.keys).collect(),
                connections: st.connections,
                stats,
            });
            reports.push(SiteReport {
                name: st.name.to_owned(),
                samples: st.samples,
                requests: st.exec.requests(),
                queries_issued: st.exec.queries_issued(),
                history_hits: st.exec.history_stats().total_hits(),
                elapsed_ms: st.iface.transport().elapsed_ms(),
                retries: stats.retries,
                backoff_vms: stats.backoff_ms,
                steals: st.steals,
                stopped: st
                    .stopped
                    .expect("driver loop ends with every site stopped"),
                stats,
                history: st.exec.history_stats(),
            });
        }
        let fleet_elapsed_ms = reports.iter().map(|r| r.elapsed_ms).max().unwrap_or(0);
        (
            FleetReport {
                sites: reports,
                fleet_elapsed_ms,
            },
            details,
        )
    }

    /// Run one walker until it parks on the wire, produces past the site
    /// target, or fails. History hits are consumed inline — they cost no
    /// wire time, only a causal floor on the walker's clock. Accepted
    /// samples stream into the site's sink and the run-level sinks at the
    /// moment they are collected.
    fn advance<T>(
        &self,
        st: &mut SiteState<'_, T>,
        wix: usize,
        mut step: WalkStep,
        run_sinks: &mut [&mut dyn SampleSink],
        tracer: &mut Tracer<'_, '_>,
    ) where
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
                        if tracer.enabled() {
                            if hit.tier == HitTier::L2 {
                                tracer.emit(&TraceEvent {
                                    kind: "l2".into(),
                                    detail: "hit".into(),
                                    site: st.six as u64,
                                    walker: wix as u64,
                                    conn: st.walkers[wix].conn.index() as u64,
                                    at_ms: hit.learned_at,
                                    ..TraceEvent::default()
                                });
                            }
                            tracer.emit(&TraceEvent {
                                kind: "cache".into(),
                                detail: "hit".into(),
                                site: st.six as u64,
                                walker: wix as u64,
                                conn: st.walkers[wix].conn.index() as u64,
                                at_ms: hit.learned_at,
                                ..TraceEvent::default()
                            });
                        }
                        step = st.walkers[wix].machine.resume(Ok(hit.answer));
                    } else {
                        let handle = st.iface.submit_query(st.walkers[wix].conn, &query);
                        let ready_at = handle.ready_at_ms();
                        let seq = st.next_seq;
                        st.next_seq += 1;
                        let mut span = 0;
                        if tracer.enabled() {
                            span = tracer.next_span();
                            let conn = st.walkers[wix].conn.index() as u64;
                            if st.exec.l2_log().is_some() {
                                tracer.emit(&TraceEvent {
                                    kind: "l2".into(),
                                    detail: "miss".into(),
                                    site: st.six as u64,
                                    walker: wix as u64,
                                    conn,
                                    at_ms: st.knowledge_ms,
                                    ..TraceEvent::default()
                                });
                            }
                            tracer.emit(&TraceEvent {
                                kind: "cache".into(),
                                detail: "miss".into(),
                                site: st.six as u64,
                                walker: wix as u64,
                                conn,
                                at_ms: st.knowledge_ms,
                                ..TraceEvent::default()
                            });
                            tracer.emit(&TraceEvent {
                                kind: "wire".into(),
                                detail: "submit".into(),
                                span,
                                site: st.six as u64,
                                walker: wix as u64,
                                conn,
                                at_ms: ready_at
                                    .saturating_sub(handle.service_ms() + handle.queued_ms()),
                                ..TraceEvent::default()
                            });
                        }
                        st.walkers[wix].pending = Some(Pending {
                            handle,
                            query,
                            ready_at,
                            seq,
                            span,
                        });
                        return;
                    }
                }
                WalkStep::Sample(s) => {
                    st.walkers[wix].keys.push(s.row.key);
                    if tracer.enabled() {
                        tracer.emit(&TraceEvent {
                            kind: "sample".into(),
                            site: st.six as u64,
                            walker: wix as u64,
                            seq: st.samples.len() as u64 + 1,
                            at_ms: st.knowledge_ms,
                            ..TraceEvent::default()
                        });
                    }
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
                    for sink in run_sinks.iter_mut() {
                        sink.observe(&ev);
                    }
                    st.samples.push(s);
                    if st.samples.len() >= self.cfg.target_per_site {
                        Self::stop_site(st, StopReason::TargetReached);
                        return;
                    }
                    step = st.walkers[wix].machine.step();
                }
                WalkStep::Failed(e) => {
                    if tracer.enabled() {
                        tracer.emit(&TraceEvent {
                            kind: "walk".into(),
                            detail: "failed".into(),
                            site: st.six as u64,
                            walker: wix as u64,
                            at_ms: st.knowledge_ms,
                            ..TraceEvent::default()
                        });
                    }
                    let reason = match e {
                        SamplerError::BudgetExhausted { .. } => StopReason::BudgetExhausted,
                        other => StopReason::Failed(other),
                    };
                    Self::stop_site(st, reason);
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
    fn harvest<T>(
        &self,
        st: &mut SiteState<'_, T>,
        run_sinks: &mut [&mut dyn SampleSink],
        tracer: &mut Tracer<'_, '_>,
    ) -> bool
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
                Self::release_backoff(st, wix, tracer);
                released = true;
            }
        }

        let mut parked: Vec<usize> = (0..st.walkers.len())
            .filter(|&wix| st.walkers[wix].pending.is_some())
            .collect();
        parked.sort_by_key(|&wix| {
            let p = st.walkers[wix].pending.as_ref().expect("filtered parked");
            (st.walkers[wix].conn.index(), p.seq)
        });

        let mut ready: Vec<Harvested> = Vec::new();
        let mut skip_conn: Option<usize> = None;
        for wix in parked {
            let conn_ix = st.walkers[wix].conn.index();
            if skip_conn == Some(conn_ix) {
                continue;
            }
            let p = st.walkers[wix].pending.take().expect("walker is parked");
            let Pending {
                handle,
                query,
                ready_at,
                seq,
                span,
            } = p;
            let queued_ms = handle.queued_ms();
            let service_ms = handle.service_ms();
            match st.iface.poll_query(handle) {
                QueryPoll::Pending(handle) => {
                    st.walkers[wix].pending = Some(Pending {
                        handle,
                        query,
                        ready_at,
                        seq,
                        span,
                    });
                    skip_conn = Some(conn_ix);
                }
                QueryPoll::Ready(result) => ready.push(Harvested {
                    wix,
                    query,
                    ready_at,
                    seq,
                    span,
                    queued_ms,
                    service_ms,
                    result,
                }),
            }
        }
        if ready.is_empty() {
            return released;
        }
        // Completion order keeps the knowledge clock honest: a resume only
        // ever sees facts learned at or before its own floor.
        ready.sort_by_key(|h| (h.ready_at, h.seq));
        for h in ready {
            self.finish_fetch(st, h, run_sinks, tracer);
        }
        true
    }

    /// Resubmit a walker whose retry backoff has elapsed (real wires
    /// only): same logical query, new fetch, no new query charge.
    fn release_backoff<T>(st: &mut SiteState<'_, T>, wix: usize, tracer: &mut Tracer<'_, '_>)
    where
        T: Transport + AsyncTransport + Clocked,
    {
        let b = st.walkers[wix]
            .backoff
            .take()
            .expect("walker is backing off");
        let handle = st.iface.resubmit_query(st.walkers[wix].conn, &b.query);
        let ready_at = handle.ready_at_ms();
        let seq = st.next_seq;
        st.next_seq += 1;
        let mut span = 0;
        if tracer.enabled() {
            span = tracer.next_span();
            tracer.emit(&TraceEvent {
                kind: "wire".into(),
                detail: "submit".into(),
                span,
                site: st.six as u64,
                walker: wix as u64,
                conn: st.walkers[wix].conn.index() as u64,
                at_ms: ready_at.saturating_sub(handle.service_ms() + handle.queued_ms()),
                ..TraceEvent::default()
            });
        }
        st.walkers[wix].pending = Some(Pending {
            handle,
            query: b.query,
            ready_at,
            seq,
            span,
        });
    }

    /// Feed one wire completion back: teach the cache, then run the
    /// owning walker until it parks again.
    fn finish_fetch<T>(
        &self,
        st: &mut SiteState<'_, T>,
        h: Harvested,
        run_sinks: &mut [&mut dyn SampleSink],
        tracer: &mut Tracer<'_, '_>,
    ) where
        T: Transport + AsyncTransport + Clocked,
    {
        st.knowledge_ms = st.knowledge_ms.max(h.ready_at);
        if st.stopped.is_some() {
            // The site finished while this page was in flight; the fetch
            // was charged either way — only the result is discarded.
            return;
        }
        if tracer.enabled() {
            tracer.emit(&TraceEvent {
                kind: "wire".into(),
                detail: "complete".into(),
                span: h.span,
                site: st.six as u64,
                walker: h.wix as u64,
                conn: st.walkers[h.wix].conn.index() as u64,
                at_ms: h.ready_at,
                dur_ms: h.queued_ms + h.service_ms,
                queue_ms: h.queued_ms,
                ..TraceEvent::default()
            });
        }
        let answer = match h.result {
            Ok(resp) => {
                st.walkers[h.wix].attempts = 0;
                let classified = Classified::from_response(resp);
                // Stamp the fact with its wire completion time: that is
                // the instant the knowledge came into being, and the
                // exact causal floor for any walker that later consumes
                // it from history.
                st.exec
                    .record_response_at(&h.query, &classified, h.ready_at);
                if tracer.enabled() && st.exec.l2_log().is_some() {
                    tracer.emit(&TraceEvent {
                        kind: "l2".into(),
                        detail: "put".into(),
                        span: h.span,
                        site: st.six as u64,
                        walker: h.wix as u64,
                        conn: st.walkers[h.wix].conn.index() as u64,
                        at_ms: h.ready_at,
                        ..TraceEvent::default()
                    });
                }
                Ok(classified)
            }
            Err(e) => {
                let policy = st.iface.retry_policy();
                if e.is_transient() && st.walkers[h.wix].attempts < policy.max_retries {
                    // Retry instead of failing the walk: back off for the
                    // server-advertised interval (or the policy's
                    // exponential schedule) and resubmit the same logical
                    // query. The retry is charged to the interface's
                    // retry/backoff counters, never as a new query.
                    let wait = policy.backoff_ms(st.walkers[h.wix].attempts, e.retry_after_ms());
                    st.walkers[h.wix].attempts += 1;
                    st.iface.note_retry(wait);
                    if tracer.enabled() {
                        tracer.emit(&TraceEvent {
                            kind: "retry".into(),
                            detail: "backoff".into(),
                            span: h.span,
                            site: st.six as u64,
                            walker: h.wix as u64,
                            conn: st.walkers[h.wix].conn.index() as u64,
                            at_ms: h.ready_at,
                            dur_ms: wait,
                            ..TraceEvent::default()
                        });
                    }
                    if st.iface.wire_is_virtual() {
                        // Bill the wait by flooring the walker's connection
                        // clock at the release time, then resubmit now —
                        // virtual time jumps forward for free.
                        st.iface
                            .transport()
                            .observe_now(st.walkers[h.wix].conn, h.ready_at.saturating_add(wait));
                        let handle = st.iface.resubmit_query(st.walkers[h.wix].conn, &h.query);
                        let ready_at = handle.ready_at_ms();
                        let seq = st.next_seq;
                        st.next_seq += 1;
                        let mut span = 0;
                        if tracer.enabled() {
                            span = tracer.next_span();
                            tracer.emit(&TraceEvent {
                                kind: "wire".into(),
                                detail: "submit".into(),
                                span,
                                site: st.six as u64,
                                walker: h.wix as u64,
                                conn: st.walkers[h.wix].conn.index() as u64,
                                at_ms: ready_at
                                    .saturating_sub(handle.service_ms() + handle.queued_ms()),
                                ..TraceEvent::default()
                            });
                        }
                        st.walkers[h.wix].pending = Some(Pending {
                            handle,
                            query: h.query,
                            ready_at,
                            seq,
                            span,
                        });
                    } else {
                        // A real server means a real wait: park the walker
                        // until the interval has genuinely elapsed.
                        st.walkers[h.wix].backoff = Some(Backoff {
                            query: h.query,
                            release_at: std::time::Instant::now()
                                + std::time::Duration::from_millis(wait),
                        });
                    }
                    return;
                }
                st.walkers[h.wix].attempts = 0;
                Err(e)
            }
        };
        let step = st.walkers[h.wix].machine.resume(answer);
        self.advance(st, h.wix, step, run_sinks, tracer);
    }

    /// Resolve the causally-earliest outstanding fetch fleet-wide (min
    /// virtual completion time, then submission order).
    ///
    /// On a virtual wire the only way forward is a blocking
    /// `complete_query` — completions live one clock advance away. On a
    /// live wire with a readiness reactor the driver instead parks in one
    /// `epoll_wait` across all of the stalled site's connections and lets
    /// the next harvest pass take whatever completed first; the blocking
    /// completion survives only as the [`STALL_FORCE_MS`] liveness
    /// fallback against a silent server.
    fn force_earliest<T>(
        &self,
        states: &mut [SiteState<'_, T>],
        run_sinks: &mut [&mut dyn SampleSink],
        tracer: &mut Tracer<'_, '_>,
        stall: &mut StallTracker,
    ) where
        T: Transport + AsyncTransport + Clocked,
    {
        let mut best: Option<(usize, usize, u64, u64)> = None;
        for (six, st) in states.iter().enumerate() {
            if st.stopped.is_some() {
                continue;
            }
            for (wix, w) in st.walkers.iter().enumerate() {
                if let Some(p) = &w.pending {
                    if best.is_none_or(|(_, _, ra, sq)| (p.ready_at, p.seq) < (ra, sq)) {
                        best = Some((six, wix, p.ready_at, p.seq));
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
            Self::release_backoff(&mut states[six], wix, tracer);
            return;
        };
        let key = (six, seq);
        let exhausted = stall.key == Some(key) && stall.waited_ms >= STALL_FORCE_MS;
        if !exhausted && !states[six].iface.wire_is_virtual() {
            let started = std::time::Instant::now();
            if states[six].iface.wait_ready(STALL_WAIT_MS).is_some() {
                let waited = (started.elapsed().as_millis() as u64).max(1);
                if stall.key == Some(key) {
                    stall.waited_ms += waited;
                } else {
                    stall.key = Some(key);
                    stall.waited_ms = waited;
                }
                if tracer.enabled() {
                    let st = &states[six];
                    let p = st.walkers[wix].pending.as_ref().expect("walker is parked");
                    tracer.emit(&TraceEvent {
                        kind: "stall".into(),
                        detail: "wait".into(),
                        span: p.span,
                        site: st.six as u64,
                        walker: wix as u64,
                        conn: st.walkers[wix].conn.index() as u64,
                        at_ms: p.ready_at,
                        dur_ms: waited,
                        ..TraceEvent::default()
                    });
                }
                return;
            }
        }
        stall.reset();
        let st = &mut states[six];
        let p = st.walkers[wix]
            .pending
            .take()
            .expect("selected walker is parked");
        if tracer.enabled() {
            tracer.emit(&TraceEvent {
                kind: "stall".into(),
                detail: "force".into(),
                span: p.span,
                site: st.six as u64,
                walker: wix as u64,
                conn: st.walkers[wix].conn.index() as u64,
                at_ms: p.ready_at,
                ..TraceEvent::default()
            });
        }
        let queued_ms = p.handle.queued_ms();
        let service_ms = p.handle.service_ms();
        let result = st.iface.complete_query(p.handle);
        self.finish_fetch(
            st,
            Harvested {
                wix,
                query: p.query,
                ready_at: p.ready_at,
                seq: p.seq,
                span: p.span,
                queued_ms,
                service_ms,
                result,
            },
            run_sinks,
            tracer,
        );
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

    /// Donate finished sites' walker slots to the hungriest running
    /// sites. Each freed slot spawns one fresh seeded machine on a fresh
    /// connection of the receiving site, floored at `max(receiver
    /// knowledge, donor elapsed)` — the stolen walker cannot pretend to
    /// have started before the donor actually freed it.
    fn rebalance<T>(
        &self,
        states: &mut [SiteState<'_, T>],
        run_sinks: &mut [&mut dyn SampleSink],
        tracer: &mut Tracer<'_, '_>,
    ) where
        T: Transport + AsyncTransport + Clocked,
    {
        // Newly-freed slots, each carrying its donor's elapsed time.
        let mut free: Vec<u64> = Vec::new();
        for st in states.iter_mut() {
            if st.stopped.is_some() && st.donated < st.walkers.len() {
                let elapsed = st.iface.transport().elapsed_ms();
                for _ in st.donated..st.walkers.len() {
                    free.push(elapsed);
                }
                st.donated = st.walkers.len();
            }
        }
        for donor_elapsed in free {
            // The hungriest site: most samples still to collect.
            let Some(rix) = states
                .iter()
                .enumerate()
                .filter(|(_, st)| st.stopped.is_none())
                .max_by_key(|(_, st)| self.cfg.target_per_site.saturating_sub(st.samples.len()))
                .map(|(i, _)| i)
            else {
                return;
            };
            let st = &mut states[rix];
            let wix = st.walkers.len();
            let machine = WalkMachine::new(st.iface.schema(), self.cfg.walker_config(st.six, wix))
                .expect("fleet walker configuration is valid");
            let conn = st.iface.connect();
            st.iface
                .transport()
                .observe_now(conn, st.knowledge_ms.max(donor_elapsed));
            st.walkers.push(Walker {
                machine,
                conn,
                pending: None,
                backoff: None,
                attempts: 0,
                keys: Vec::new(),
            });
            st.connections += 1;
            st.steals += 1;
            if tracer.enabled() {
                tracer.emit(&TraceEvent {
                    kind: "steal".into(),
                    detail: "grant".into(),
                    site: st.six as u64,
                    walker: wix as u64,
                    conn: conn.index() as u64,
                    at_ms: st.knowledge_ms.max(donor_elapsed),
                    ..TraceEvent::default()
                });
            }
            let step = st.walkers[wix].machine.step();
            self.advance(st, wix, step, run_sinks, tracer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let cfg = FleetConfig {
            walkers_per_site: 4,
            target_per_site: 40,
            seed: 11,
            ..FleetConfig::default()
        };
        let mut sites: Vec<_> = (0..3)
            .map(|i| vehicles_task(&format!("s{i}"), 90 + i as u64, 100, None))
            .collect();
        let (report, details) = CoopDriver::new(cfg).run_with_details(&mut sites);
        assert_eq!(report.total_samples(), 120);
        for (site, detail) in report.sites.iter().zip(&details) {
            assert_eq!(site.stopped, StopReason::TargetReached);
            assert_eq!(detail.connections, 4);
            assert_eq!(
                detail.per_walker_keys.iter().map(Vec::len).sum::<usize>(),
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
        let (_, details) = CoopDriver::new(cfg.clone()).run_with_details(&mut sites);
        let per_walker = &details[0].per_walker_keys;
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
        let cfg = FleetConfig {
            walkers_per_site: 8,
            target_per_site: 32,
            seed: 3,
            ..FleetConfig::default()
        };
        let mut sites = vec![figure1_task("pipe", 100)];
        let (report, details) = CoopDriver::new(cfg)
            .with_connections(2)
            .run_with_details(&mut sites);
        assert_eq!(details[0].connections, 2);
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
        let cfg = FleetConfig {
            walkers_per_site: 4,
            target_per_site: 10_000,
            seed: 5,
            ..FleetConfig::default()
        };
        let mut sites = [
            vehicles_task("starved", 1, 50, Some(60)),
            vehicles_task("ok", 2, 50, None),
        ];
        let cfg_ok = FleetConfig {
            target_per_site: 25,
            ..cfg.clone()
        };
        // Drive the starved site alone first (mixed targets need two
        // runs; the driver applies one target fleet-wide).
        let report = CoopDriver::new(cfg).run(&mut sites[..1]);
        assert_eq!(report.sites[0].stopped, StopReason::BudgetExhausted);
        assert!(report.sites[0].samples.len() < 10_000);
        assert!(
            !report.sites[0].samples.is_empty(),
            "partial results survive"
        );
        // A healthy site is unaffected by the starved one's existence.
        let report = CoopDriver::new(cfg_ok).run(&mut sites[1..]);
        assert_eq!(report.sites[0].stopped, StopReason::TargetReached);
    }

    #[test]
    fn warm_history_resumes_without_touching_the_wire() {
        // Figure 1 has 8 possible queries; after a warm-up pass the cache
        // can answer whole walks. Charged fetches must plateau while
        // samples keep flowing — the "history hits resume immediately"
        // half of the design.
        let cfg = FleetConfig {
            walkers_per_site: 2,
            target_per_site: 200,
            seed: 13,
            ..FleetConfig::default()
        };
        let mut sites = vec![figure1_task("warm", 100)];
        let report = CoopDriver::new(cfg).run(&mut sites);
        let site = &report.sites[0];
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
        let cfg = FleetConfig {
            walkers_per_site: 3,
            target_per_site: 40,
            seed: 9,
            ..FleetConfig::default()
        };
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
            let report = CoopDriver::new(cfg.clone()).run(&mut sites);
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
            site.retries <= faults && site.retries + cfg.walkers_per_site as u64 >= faults,
            "retries {} vs faults {faults}",
            site.retries
        );
        assert!(site.backoff_vms > 0, "backoff time is billed");
        assert_eq!(site.stats.retries, site.retries);
        assert_eq!(site.stats.backoff_ms, site.backoff_vms);
        // Backoff is billed on the connection clocks: elapsed (max over
        // connections) is at least the per-connection share of the total.
        assert!(
            site.elapsed_ms >= site.backoff_vms / cfg.walkers_per_site as u64,
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
        let cfg = FleetConfig {
            walkers_per_site: 4,
            target_per_site: 60,
            seed: 2,
            ..FleetConfig::default()
        };
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
            CoopDriver::new(cfg.clone())
                .with_stealing(steal)
                .run(&mut sites)
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
        let cfg = FleetConfig {
            walkers_per_site: 16,
            target_per_site: 30,
            seed: job_seed,
            slider: 0.4,
            ..FleetConfig::default()
        };
        let report = CoopDriver::new(cfg)
            .with_connections(4)
            .with_stealing(true)
            .run(&mut sites);
        assert_eq!(report.total_samples(), 4 * 30);
        for site in &report.sites {
            assert_eq!(site.stopped, StopReason::TargetReached, "{}", site.name);
        }
    }

    #[test]
    fn empty_scope_fails_the_site() {
        use hdsampler_model::{AttrId, ConjunctiveQuery};
        let cfg = FleetConfig {
            walkers_per_site: 2,
            target_per_site: 10,
            seed: 1,
            scope: ConjunctiveQuery::from_pairs([(AttrId(0), 1), (AttrId(1), 0)]).unwrap(),
            ..FleetConfig::default()
        };
        let mut sites = vec![figure1_task("empty", 10)];
        let report = CoopDriver::new(cfg).run(&mut sites);
        assert!(matches!(
            report.sites[0].stopped,
            StopReason::Failed(SamplerError::EmptyScope)
        ));
        assert!(report.sites[0].samples.is_empty());
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
            let cfg = FleetConfig {
                walkers_per_site: walkers,
                target_per_site: 30,
                seed,
                ..FleetConfig::default()
            };
            let mut sites = vec![vehicles_task("p", seed ^ 0xABCD, latency, None)];
            let (report, _) = CoopDriver::new(cfg).run_with_details(&mut sites);
            let site = &report.sites[0];
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
