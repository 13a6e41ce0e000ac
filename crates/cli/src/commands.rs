//! Command implementations.

use std::io::Write as _;
use std::sync::Arc;

use hdsampler_core::{
    CachingExecutor, HdsSampler, MetricsRegistry, MetricsSink, SampleSet, SamplerConfig,
    SamplerStats, SamplingSession, SessionEvent, TraceEvent, TraceLog,
};
use hdsampler_estimator::{fmt_stat, Estimator, Histogram, MarginalComparison, OnlineFrequencies};
use hdsampler_hidden_db::{CountMode, HiddenDb};
use hdsampler_model::{ConjunctiveQuery, FormInterface, Schema};
use hdsampler_server::{
    render_server_metrics, Adversary, BridgeSink, HttpServer, Response, ServeMode, ServerConfig,
    ServerHandle, SiteBehavior,
};
use hdsampler_webform::{
    read_journal, summarize, watch_events, write_journal, AsyncTransport, BoxTransport, ChaosSpec,
    ChaosTransport, Clocked, ConnectOptions, ConnectorRegistry, Driver, LatencyTransport,
    LocalSite, RetryPolicy, RunPlan, RunReport, SiteLocator, SiteReport, SiteTask, Transport,
    WebForm, WebFormInterface,
};
use hdsampler_workload::{resolve_dataset, DbConfig, WorkloadSpec};

use crate::args::{CacheAction, Cli, Command, Common, TraceAction};
use crate::display::{self, progress_line, ProgressSink, WatchSink};

/// Build one simulated hidden database from the common options with an
/// explicit seed (multi-site fleets give every site its own data).
fn build_db(common: &Common, seed: u64) -> Result<HiddenDb, String> {
    let count_mode = match common.counts.as_str() {
        "exact" => CountMode::Exact,
        "noisy" => CountMode::Noisy { sigma: 0.15, seed },
        _ => CountMode::Absent,
    };
    let mut db_cfg = DbConfig {
        count_mode,
        ..DbConfig::no_counts().with_k(common.k)
    };
    if let Some(b) = common.budget {
        db_cfg = db_cfg.with_budget(b);
    }
    // The registry rejects unknown names early, listing every valid one
    // (plus a nearest-match hint) — no string-matched dispatch here.
    let data = resolve_dataset(&common.source)?.data_spec(common.n, seed);
    Ok(WorkloadSpec {
        data,
        db: db_cfg,
        seed,
    }
    .build())
}

/// Build the simulated site from the common options.
fn build_site(common: &Common) -> Result<Arc<HiddenDb>, String> {
    Ok(Arc::new(build_db(common, common.seed)?))
}

fn scope_query(schema: &Schema, binds: &[(String, String)]) -> Result<ConjunctiveQuery, String> {
    ConjunctiveQuery::from_named(schema, binds.iter().map(|(a, b)| (a.as_str(), b.as_str())))
        .map_err(|e| e.to_string())
}

/// Run one sampling session over any interface (the in-process database
/// or a scraped remote site) behind a history cache.
fn run_session_on<F: FormInterface>(
    iface: F,
    schema: &Schema,
    common: &Common,
) -> Result<(SampleSet, hdsampler_core::SamplerStats), String> {
    let scope = scope_query(schema, &common.binds)?;
    let cfg = SamplerConfig::seeded(common.seed)
        .with_slider(common.slider)
        .with_scope(scope);
    let exec = CachingExecutor::new(iface);
    let mut sampler = HdsSampler::new(&exec, cfg).map_err(|e| e.to_string())?;
    let session = SamplingSession::new(common.samples);
    let mut out = std::io::stdout();
    let outcome = session.run(&mut sampler, |event| {
        if let SessionEvent::SampleAccepted {
            collected, target, ..
        } = event
        {
            if collected % 25 == 0 || *collected == *target {
                let _ = write!(out, "\r  samples {collected}/{target}   ");
                let _ = out.flush();
            }
        }
    });
    println!();
    println!("{}", display::summary(&outcome.stats));
    let hist = exec.history_stats();
    println!(
        "history cache: {} shards (autotuned), {} hits, {} evictions",
        hist.shard_count,
        hist.total_hits(),
        hist.evictions
    );
    match &outcome.reason {
        hdsampler_core::StopReason::TargetReached => {}
        // A failed session (e.g. the remote server refused connections) is
        // a command failure, not a short result — scripts polling
        // `sample --remote` rely on the exit code.
        hdsampler_core::StopReason::Failed(e) => {
            return Err(format!("session failed: {e}"));
        }
        early => println!("note: session stopped early ({early:?})"),
    }
    Ok((outcome.samples, outcome.stats))
}

fn run_session(
    db: &Arc<HiddenDb>,
    common: &Common,
) -> Result<(SampleSet, hdsampler_core::SamplerStats), String> {
    let schema = db.schema().clone();
    run_session_on(Arc::clone(db), &schema, common)
}

/// The locator a `sample` invocation means: the positional locator wins,
/// `--remote <addr>` is sugar for `http://<addr>`, and bare flags name an
/// in-process `local:` site (so every path goes through the connector
/// registry and its scrape-based schema discovery).
fn effective_locator(common: &Common, locator: Option<&str>) -> Result<SiteLocator, String> {
    if let Some(s) = locator {
        return SiteLocator::parse(s);
    }
    if let Some(addr) = &common.remote {
        return SiteLocator::parse(&format!("http://{addr}"));
    }
    Ok(local_locator_from_flags(common))
}

/// Translate the classic workload flags into their `local:` locator.
fn local_locator_from_flags(common: &Common) -> SiteLocator {
    let mut params = vec![
        ("n".to_string(), common.n.to_string()),
        ("k".to_string(), common.k.to_string()),
        ("seed".to_string(), common.seed.to_string()),
    ];
    if common.counts != "absent" {
        params.push(("counts".into(), common.counts.clone()));
    }
    if let Some(b) = common.budget {
        params.push(("budget".into(), b.to_string()));
    }
    SiteLocator::Local {
        dataset: common.source.clone(),
        params,
    }
}

/// The `--trace` / `--metrics` options a run surface carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryOpts {
    /// `--trace <path>`: journal the run's trace events to JSONL.
    pub trace: Option<String>,
    /// `--metrics <port>`: loopback port for a live telemetry server
    /// exposing `/metrics` and `/events` over the run.
    pub metrics: Option<String>,
}

impl TelemetryOpts {
    fn new(trace: Option<String>, metrics: Option<String>) -> Self {
        TelemetryOpts { trace, metrics }
    }
}

/// The landing page of the embedded telemetry plane. `/metrics` and
/// `/events` are answered by the server itself before routing reaches
/// the site, so the only job here is pointing a browser at them.
struct TelemetrySite;

impl SiteBehavior for TelemetrySite {
    fn get(&self, _target: &str) -> Response {
        Response::text(
            200,
            "OK",
            "hdsampler telemetry plane — scrape /metrics, stream /events\n".to_string(),
        )
    }
}

/// The live half of a run's observability, resolved from
/// [`TelemetryOpts`]: a journal accumulator for `--trace`, and (for
/// `--metrics <port>`) an embedded telemetry server whose registry
/// aggregates the same trace stream and whose `/events` hub mirrors
/// every accepted sample to remote watchers.
struct PlanTelemetry {
    journal: Option<String>,
    log: TraceLog,
    metrics_sink: Option<MetricsSink>,
    bridge: Option<BridgeSink>,
    plane: Option<ServerHandle>,
}

impl PlanTelemetry {
    /// Resolve the flags, booting the telemetry server if one was asked
    /// for (`--metrics 0` picks an ephemeral port; the bound address is
    /// printed so a second terminal can `trace watch` it).
    fn start(opts: &TelemetryOpts) -> Result<Self, String> {
        let served = match &opts.metrics {
            Some(port) => {
                let port: u16 = port.parse().map_err(|_| {
                    format!(
                        "--metrics: `{port}` is not a port number (sample/multi-site \
                         serve a live telemetry plane; 0 = ephemeral)"
                    )
                })?;
                let registry = MetricsRegistry::new();
                let cfg = ServerConfig {
                    addr: format!("127.0.0.1:{port}"),
                    workers: 2,
                    metrics: Some(registry.clone()),
                    ..ServerConfig::default()
                };
                let handle = HttpServer::serve(cfg, Arc::new(TelemetrySite))
                    .map_err(|e| format!("cannot bind telemetry plane on 127.0.0.1:{port}: {e}"))?;
                println!(
                    "telemetry: http://{0} — scrape /metrics, stream /events \
                     (`hdsampler trace watch {0}`)",
                    handle.addr()
                );
                Some((handle, registry))
            }
            None => None,
        };
        let (plane, metrics_sink, bridge) = match served {
            Some((handle, registry)) => {
                let bridge = BridgeSink::new(handle.events());
                (Some(handle), Some(MetricsSink::new(registry)), Some(bridge))
            }
            None => (None, None, None),
        };
        Ok(PlanTelemetry {
            journal: opts.trace.clone(),
            log: TraceLog::new(),
            metrics_sink,
            bridge,
            plane,
        })
    }

    /// Attach the resolved sinks to the run's plan.
    fn attach<'a>(&'a mut self, mut plan: RunPlan<'a>) -> RunPlan<'a> {
        if let Some(b) = self.bridge.as_mut() {
            plan = plan.attach(b);
        }
        if self.journal.is_some() {
            plan = plan.attach_trace(&mut self.log);
        }
        if let Some(m) = self.metrics_sink.as_mut() {
            plan = plan.attach_trace(m);
        }
        plan
    }

    /// Write the journal and retire the telemetry server (ending any
    /// `/events` watcher's stream cleanly).
    fn finish(self) -> Result<(), String> {
        if let Some(path) = &self.journal {
            write_journal(std::path::Path::new(path), self.log.events())
                .map_err(|e| format!("cannot write trace journal `{path}`: {e}"))?;
            println!(
                "trace: {} event(s) journaled to `{path}` — inspect with `trace report {path}`",
                self.log.events().len()
            );
        }
        if let Some(handle) = self.plane {
            let stats = handle.shutdown();
            println!(
                "telemetry: plane served {} request(s) on {} connection(s)",
                stats.requests, stats.connections
            );
        }
        Ok(())
    }
}

/// Execute a parsed command.
pub fn run(cli: Cli) -> Result<(), String> {
    match cli.command {
        Command::Describe => describe(&cli.common),
        Command::Sample {
            locator,
            histograms,
            record,
            walkers,
            conns,
            watch,
            trace,
            metrics,
            l2,
        } => sample(
            &cli.common,
            locator.as_deref(),
            &histograms,
            record.as_deref(),
            walkers,
            conns,
            watch,
            &TelemetryOpts::new(trace, metrics),
            l2.as_deref(),
        ),
        Command::Aggregate { proportions, avgs } => aggregate(&cli.common, &proportions, &avgs),
        Command::Validate { attr } => validate(&cli.common, attr.as_deref()),
        Command::MultiSite {
            site_locators,
            sites,
            walkers,
            latencies_ms,
            jitter_ms,
            conns,
            watch,
            chaos,
            steal,
            trace,
            metrics,
            l2,
        } => {
            let telemetry = TelemetryOpts::new(trace, metrics);
            if !site_locators.is_empty() {
                return multi_site_locators(
                    &cli.common,
                    &site_locators,
                    walkers,
                    conns,
                    steal,
                    &telemetry,
                    l2.as_deref(),
                );
            }
            if l2.is_some() {
                // The flag-built simulated fleet gives every site the
                // same schema and k, so a digest-free fingerprint would
                // collide across sites with different data — facts from
                // one site would answer another's queries. Locator legs
                // scrape each site's advertised (data-sensitive)
                // fingerprint instead.
                return Err("--l2 needs fingerprinted legs; name the fleet with --site \
                            locators (e.g. --site local:boolean?seed=1) or bake an \
                            `l2=` parameter into each locator"
                    .into());
            }
            multi_site(
                &cli.common,
                sites,
                walkers,
                &latencies_ms,
                jitter_ms,
                conns,
                watch,
                chaos,
                steal,
                &telemetry,
            )
        }
        Command::Serve {
            port,
            pool,
            workers,
            serve_for,
            chaos,
            trace,
            metrics,
            max_conns,
        } => serve(
            &cli.common,
            port,
            pool,
            workers,
            serve_for,
            chaos,
            &TelemetryOpts::new(trace, metrics),
            max_conns,
        ),
        Command::Trace { action } => match action {
            TraceAction::Report { journal } => trace_report(&journal),
            TraceAction::Watch { addr } => trace_watch(&addr),
        },
        Command::Cache { action, dir } => cache_cmd(action, &dir),
    }
}

/// `cache stats|compact|clear --l2 <dir>`: maintenance of a persistent
/// history directory, one fingerprint subdirectory per site version.
fn cache_cmd(action: CacheAction, dir: &str) -> Result<(), String> {
    use hdsampler_core::L2Log;
    let root = std::path::Path::new(dir);
    let sites =
        L2Log::list_sites(root).map_err(|e| format!("cannot scan cache root `{dir}`: {e}"))?;
    if sites.is_empty() {
        println!("cache root `{dir}`: no persisted sites");
        return Ok(());
    }
    println!("cache root `{dir}`: {} site(s)", sites.len());
    for fp in sites {
        let log = L2Log::open(root, fp.clone())
            .map_err(|e| format!("cannot open site log `{}`: {e}", fp.as_str()))?;
        match action {
            CacheAction::Stats => {
                let s = log
                    .stats()
                    .map_err(|e| format!("cannot scan `{}`: {e}", fp.as_str()))?;
                println!(
                    "  {}: {} records in {} segment(s), {} bytes, {} skipped",
                    fp.as_str(),
                    s.records,
                    s.segments,
                    s.bytes,
                    s.skipped
                );
            }
            CacheAction::Compact => {
                let r = log
                    .compact()
                    .map_err(|e| format!("cannot compact `{}`: {e}", fp.as_str()))?;
                println!(
                    "  {}: {} records in {} segment(s) -> {} records in 1 segment \
                     ({} torn line(s) dropped)",
                    fp.as_str(),
                    r.records_before,
                    r.segments_before,
                    r.records_after,
                    r.skipped
                );
            }
            CacheAction::Clear => {
                log.clear()
                    .map_err(|e| format!("cannot clear `{}`: {e}", fp.as_str()))?;
                println!("  {}: cleared", fp.as_str());
            }
        }
    }
    Ok(())
}

/// `trace report <journal.jsonl>`: per-stage latency breakdown and the
/// critical-path summary of a `--trace` journal.
fn trace_report(journal: &str) -> Result<(), String> {
    let events = read_journal(std::path::Path::new(journal))?;
    println!("{}", summarize(&events));
    Ok(())
}

/// `trace watch <host:port>`: `--watch`'s remote mode — follow a live
/// server's `/events` stream, re-rendering the streaming progress line
/// for every accepted-sample event until the server closes the stream.
fn trace_watch(addr: &str) -> Result<(), String> {
    println!("watching http://{addr}/events — ends when the server closes the stream");
    let mut out = std::io::stdout();
    let delivered = watch_events(addr, |ev| {
        let stats = SamplerStats {
            queries_issued: ev.queries,
            requests: ev.requests,
            ..SamplerStats::default()
        };
        let _ = write!(out, "{}", progress_line(ev.collected, ev.target, &stats));
        let _ = out.flush();
        true
    })?;
    println!("\nstream closed after {delivered} accepted-sample event(s)");
    Ok(())
}

/// Put the simulated site behind a real HTTP front door on 127.0.0.1,
/// optionally hidden behind a fault-injecting [`Adversary`].
#[allow(clippy::too_many_arguments)]
fn serve(
    common: &Common,
    port: u16,
    pool: bool,
    workers: usize,
    serve_for: Option<u64>,
    chaos: Option<ChaosSpec>,
    telemetry: &TelemetryOpts,
    max_conns: usize,
) -> Result<(), String> {
    let db = build_db(common, common.seed)?;
    let schema = Arc::new(db.schema().clone());
    let n = db.n_tuples();
    let k = db.result_limit();
    let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
    let action = site.form().action().to_string();
    let mode = if pool {
        ServeMode::Pool
    } else {
        ServeMode::Reactor
    };
    let reactor_live = mode == ServeMode::Reactor && cfg!(target_os = "linux");
    let cfg = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        workers,
        mode,
        max_conns,
        ..ServerConfig::default()
    };
    // The adversary (when any) is kept on this side too, so the shutdown
    // report can print what it injected.
    let adversary = chaos.map(|spec| Arc::new(Adversary::new(Arc::clone(&site), spec)));
    let handle = match &adversary {
        Some(adv) => HttpServer::serve(cfg, Arc::clone(adv)),
        None => HttpServer::serve(cfg, site),
    }
    .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    println!(
        "serving `{}` (n = {n}, top-{k}) on http://{} — form at /, results at {action}",
        common.source,
        handle.addr()
    );
    println!("telemetry: /metrics exposition and /events live stream on the same port");
    if reactor_live {
        println!("mode: epoll reactor — one readiness loop per core multiplexing every connection");
    } else if mode == ServeMode::Reactor {
        println!("mode: bounded pool, {workers} worker thread(s) (the epoll reactor needs Linux)");
    } else {
        println!("mode: bounded pool, {workers} worker thread(s) (--pool)");
    }
    if max_conns > 0 {
        println!(
            "admission: at most {max_conns} open connection(s); extras get \
             503 + Retry-After"
        );
    }
    if let Some(adv) = &adversary {
        let spec = adv.spec();
        println!(
            "adversary: seed {} — throttle {:.0}%, fail {:.0}%, drop {:.0}%, \
             latency {} ms, slow-start {} ms × {}, jitter ±{} ms, count-noise {:.0}%",
            spec.seed,
            spec.throttle * 100.0,
            spec.fail * 100.0,
            spec.drop * 100.0,
            spec.latency_ms,
            spec.slow_start_ms,
            spec.slow_warmup,
            spec.jitter_ms,
            spec.count_noise * 100.0,
        );
    }
    match serve_for {
        Some(secs) => {
            println!("shutting down gracefully after {secs} s");
            std::thread::sleep(std::time::Duration::from_secs(secs));
            let request_log = handle.request_log();
            let stats = handle.shutdown();
            println!(
                "served {} requests on {} connections ({} ok / {} client-error / {} server-error), {} bytes out / {} bytes in",
                stats.requests,
                stats.connections,
                stats.responses_ok,
                stats.responses_client_error,
                stats.responses_server_error,
                stats.bytes_out,
                stats.bytes_in,
            );
            if stats.admission_rejects > 0 {
                println!(
                    "admission: {} connection(s) turned away at the --max-conns cap",
                    stats.admission_rejects
                );
            }
            println!(
                "routes: {} landing, {} search, {} metrics, {} events, {} other",
                stats.requests_landing,
                stats.requests_search,
                stats.requests_metrics,
                stats.requests_events,
                stats.requests_other,
            );
            if reactor_live {
                println!(
                    "reactor: {} wakeups, {} ready events, {} accepts, {} timers fired, \
                     {} connection(s) still open",
                    stats.reactor_wakeups,
                    stats.reactor_ready_events,
                    stats.reactor_accepts,
                    stats.timers_fired,
                    stats.open_connections,
                );
            }
            if let Some(path) = &telemetry.metrics {
                std::fs::write(path, render_server_metrics(&stats, None))
                    .map_err(|e| format!("cannot write metrics exposition `{path}`: {e}"))?;
                println!("metrics: final exposition written to `{path}`");
            }
            if let Some(path) = &telemetry.trace {
                let events: Vec<TraceEvent> = request_log
                    .iter()
                    .map(|entry| TraceEvent {
                        kind: "request".into(),
                        detail: entry.target.clone(),
                        tag: entry.trace.clone(),
                        seq: entry.seq,
                        code: u64::from(entry.status),
                        ..TraceEvent::default()
                    })
                    .collect();
                write_journal(std::path::Path::new(path), &events)
                    .map_err(|e| format!("cannot write request journal `{path}`: {e}"))?;
                println!(
                    "trace: {} request(s) journaled to `{path}` (ring buffer keeps the last {})",
                    events.len(),
                    hdsampler_server::REQUEST_LOG_CAP,
                );
            }
            if let Some(adv) = &adversary {
                let c = adv.counters();
                println!(
                    "injected: {} throttles, {} transient failures, {} dropped connections, \
                     {} noisy pages, {} ms extra delay",
                    c.throttles, c.transient_fails, c.drops, c.noisy_pages, c.extra_delay_ms,
                );
            }
        }
        None => {
            println!("press Ctrl-C to stop");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
    Ok(())
}

/// Build one fleet of `sites` scraper stacks, each over its own seeded
/// data behind a latency-decorated wire. Site `i` gets latency
/// `latencies_ms[i % len] ± jitter_ms` (heterogeneous fleets: pass a
/// comma list to `--latency`).
fn build_fleet(
    common: &Common,
    sites: usize,
    latencies_ms: &[u64],
    jitter_ms: u64,
) -> Result<Vec<SiteTask<LatencyTransport<LocalSite<HiddenDb>>>>, String> {
    (0..sites)
        .map(|i| {
            let db = build_db(common, common.seed.wrapping_add(i as u64))?;
            let schema = Arc::new(db.schema().clone());
            let k = db.result_limit();
            let supports_count = db.supports_count();
            let site = LocalSite::new(db, Arc::clone(&schema));
            let latency = latencies_ms[i % latencies_ms.len()];
            let wire = LatencyTransport::with_jitter(
                site,
                latency,
                jitter_ms,
                common.seed.wrapping_add(i as u64),
            );
            Ok(SiteTask::new(
                format!("site-{i}"),
                WebFormInterface::new(wire, schema, k, supports_count),
            ))
        })
        .collect()
}

/// Build an adversarial fleet: the same seeded per-site data, but each
/// wire is a [`ChaosTransport`] injecting the `--chaos` schedule. Site `i`
/// faults on its own stream (the spec seed is offset per site, so the
/// fleet never throttles in lockstep); a spec without `latency=` inherits
/// the site's `--latency` entry as its base service time.
fn build_chaos_fleet(
    common: &Common,
    sites: usize,
    latencies_ms: &[u64],
    spec: &ChaosSpec,
) -> Result<Vec<SiteTask<ChaosTransport<LocalSite<HiddenDb>>>>, String> {
    (0..sites)
        .map(|i| {
            let db = build_db(common, common.seed.wrapping_add(i as u64))?;
            let schema = Arc::new(db.schema().clone());
            let k = db.result_limit();
            let supports_count = db.supports_count();
            let site = LocalSite::new(db, Arc::clone(&schema));
            let mut site_spec = ChaosSpec {
                seed: spec.seed.wrapping_add(i as u64),
                ..spec.clone()
            };
            if site_spec.latency_ms == 0 {
                site_spec.latency_ms = latencies_ms[i % latencies_ms.len()];
            }
            let wire = ChaosTransport::new(site, site_spec);
            Ok(SiteTask::new(
                format!("site-{i}"),
                WebFormInterface::new(wire, schema, k, supports_count)
                    .with_retry(CHAOS_RETRY_POLICY),
            ))
        })
        .collect()
}

/// The retry policy an adversarial fleet runs under: patient enough to
/// ride out bursts at the default fault rates, still bounded so a dead
/// site fails instead of spinning.
const CHAOS_RETRY_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 12,
    base_backoff_ms: 25,
    max_backoff_ms: 2_000,
};

/// Build a fleet of scraper stacks over live servers, one per address,
/// each schema discovered by scraping the server's landing page — no
/// local schema flags needed.
fn build_remote_fleet(addrs: &[&str]) -> Result<Vec<SiteTask<BoxTransport>>, String> {
    let registry = ConnectorRegistry::standard();
    addrs
        .iter()
        .map(|addr| {
            let loc = SiteLocator::parse(&format!("http://{addr}"))?;
            registry.connect(&loc, &ConnectOptions::default())
        })
        .collect()
}

/// `multi-site --site a --site b …`: a heterogeneous fleet where every
/// leg is its own locator — mixed `local:`, `http://` and `replay:` wires
/// with per-site schemas, all resolved through the connector registry and
/// driven by one [`RunPlan`].
fn multi_site_locators(
    common: &Common,
    locs: &[String],
    walkers: usize,
    conns: Option<usize>,
    steal: bool,
    telemetry: &TelemetryOpts,
    l2: Option<&str>,
) -> Result<(), String> {
    if !common.binds.is_empty() {
        return Err("--bind does not combine with --site: fleet legs have \
                    per-site schemas, and the scope is fleet-wide"
            .into());
    }
    let locators: Vec<SiteLocator> = locs
        .iter()
        .map(|s| SiteLocator::parse(s))
        .collect::<Result<_, String>>()?;
    println!(
        "fleet: {} site(s) by locator, {} samples per site, {walkers} walker(s) per site",
        locators.len(),
        common.samples
    );
    for loc in &locators {
        println!("  - {loc}");
    }
    print_driver_line(steal);
    if let Some(root) = l2 {
        println!("l2 history: persisting learned facts under `{root}/<fingerprint>/`");
    }
    let mut observers = PlanTelemetry::start(telemetry)?;
    let mut plan = RunPlan::target(common.samples)
        .walkers(walkers)
        .seed(common.seed)
        .slider(common.slider)
        .driver(Driver::Coop { conns })
        .steal(steal);
    if let Some(root) = l2 {
        plan = plan.l2(root);
    }
    let (report, fleet) = observers.attach(plan).run_locators(&locators)?;
    println!("\n{}", display::fleet_report(&report.fleet));
    if l2.is_some() {
        for (task, site) in fleet.iter().zip(&report.fleet.sites) {
            print_l2_block(
                &site.history,
                task.l2().map(|log| log.fingerprint().as_str()),
            );
        }
    }
    observers.finish()
}

/// The engine line every simulated or locator-built fleet prints.
fn print_driver_line(steal: bool) {
    println!(
        "driver: cooperative — one thread multiplexes every site's walkers{}",
        if steal { ", stealing enabled" } else { "" }
    );
}

/// Drive one fleet: the shared back half of `multi-site`, generic over
/// the wire (virtual, chaos-wrapped, or real).
fn drive_fleet<T>(
    common: &Common,
    mut fleet: Vec<SiteTask<T>>,
    walkers: usize,
    conns: Option<usize>,
    watch: bool,
    steal: bool,
    telemetry: &TelemetryOpts,
) -> Result<(), String>
where
    T: Transport + AsyncTransport + Clocked,
{
    // The sites share a schema structure, so the --bind scope resolves
    // fleet-wide against the first one.
    let schema = fleet[0].iface.schema().clone();
    let scope = scope_query(&schema, &common.binds)?;
    let mut watch_sink = watch.then(|| fleet_watch_sink(&schema)).transpose()?;
    let mut observers = PlanTelemetry::start(telemetry)?;
    let mut plan = RunPlan::target(common.samples)
        .walkers(walkers)
        .seed(common.seed)
        .slider(common.slider)
        .scope(scope)
        .driver(Driver::Coop { conns })
        .steal(steal);
    if let Some(w) = watch_sink.as_mut() {
        plan = plan.attach(w);
    }
    let report = observers.attach(plan).run(&mut fleet);
    println!("\n{}", display::fleet_report(&report.fleet));
    observers.finish()
}

#[allow(clippy::too_many_arguments)]
fn multi_site(
    common: &Common,
    sites: usize,
    walkers: usize,
    latencies_ms: &[u64],
    jitter_ms: u64,
    conns: Option<usize>,
    watch: bool,
    chaos: Option<ChaosSpec>,
    steal: bool,
    telemetry: &TelemetryOpts,
) -> Result<(), String> {
    if let Some(remote) = &common.remote {
        return multi_site_remote(common, remote, walkers, conns, watch, steal, telemetry);
    }
    let latency_desc = if latencies_ms.len() == 1 {
        format!("{} ms", latencies_ms[0])
    } else {
        format!("{latencies_ms:?} ms (cycling)")
    };
    match chaos {
        Some(spec) => {
            println!(
                "fleet: {sites} × `{}` (n = {} each) behind adversarial wires \
                 (seed {} — throttle {:.0}%, fail {:.0}%, drop {:.0}%, count-noise {:.0}%), \
                 {} samples per site, {walkers} walker(s) per site",
                common.source,
                common.n,
                spec.seed,
                spec.throttle * 100.0,
                spec.fail * 100.0,
                spec.drop * 100.0,
                spec.count_noise * 100.0,
                common.samples
            );
            print_driver_line(steal);
            let fleet = build_chaos_fleet(common, sites, latencies_ms, &spec)?;
            drive_fleet(common, fleet, walkers, conns, watch, steal, telemetry)
        }
        None => {
            println!(
                "fleet: {sites} × `{}` (n = {} each) at {latency_desc} ± {jitter_ms} ms \
                 virtual latency, {} samples per site, {walkers} walker(s) per site",
                common.source, common.n, common.samples
            );
            print_driver_line(steal);
            let fleet = build_fleet(common, sites, latencies_ms, jitter_ms)?;
            drive_fleet(common, fleet, walkers, conns, watch, steal, telemetry)
        }
    }
}

/// The fleet-wide `--watch` sink: live histograms over the schema's
/// first attribute, re-rendered every 25 samples.
fn fleet_watch_sink(schema: &Schema) -> Result<WatchSink, String> {
    let attr = schema
        .attr_ids()
        .next()
        .ok_or("schema has no attributes to watch")?;
    Ok(WatchSink::new(vec![Histogram::new(schema, attr)], 25, 40))
}

/// Pipelined connections per live site when `--conns` is not given: the
/// reactor server (the `serve` default) multiplexes every connection onto
/// per-core readiness loops, so a wide fan-out no longer starves a worker
/// pool — 64 connections keeps per-connection pipelines shallow (better
/// latency under cancellation) while staying far below fd limits. Against
/// a `serve --pool` server, cap it by hand (`--conns <= --workers`).
const DEFAULT_REMOTE_CONNS: usize = 64;

/// `multi-site --remote a,b,c`: one site per live server address, real
/// wall clock instead of the virtual one.
fn multi_site_remote(
    common: &Common,
    remote: &str,
    walkers: usize,
    conns: Option<usize>,
    watch: bool,
    steal: bool,
    telemetry: &TelemetryOpts,
) -> Result<(), String> {
    let addrs: Vec<&str> = remote.split(',').map(str::trim).collect();
    if addrs.iter().any(|a| a.is_empty()) {
        return Err("--remote: empty address in list".into());
    }
    let fleet = build_remote_fleet(&addrs)?;
    println!(
        "fleet: {} live server(s) over real TCP, {} samples per site, {walkers} walker(s) per site",
        addrs.len(),
        common.samples
    );
    let conns = conns.unwrap_or(DEFAULT_REMOTE_CONNS).min(walkers);
    println!(
        "driver: cooperative — one thread, {walkers} walker(s) pipelined over \
         {conns} connection(s) per site{}",
        if steal { ", stealing enabled" } else { "" }
    );
    drive_fleet(common, fleet, walkers, Some(conns), watch, steal, telemetry)
}

fn describe(common: &Common) -> Result<(), String> {
    let db = build_site(common)?;
    let schema = Arc::new(db.schema().clone());
    println!(
        "source `{}`: {} tuples behind a top-{} conjunctive form ({} attributes, {} measures)",
        common.source,
        db.n_tuples(),
        db.result_limit(),
        schema.arity(),
        schema.measure_arity(),
    );
    println!("domain product B = {:.3e}\n", schema.domain_product());
    for (_, attr) in schema.iter() {
        let labels: Vec<String> = attr
            .domain()
            .take(6)
            .map(|v| attr.label(v).into_owned())
            .collect();
        let ellipsis = if attr.domain_size() > 6 { ", …" } else { "" };
        println!(
            "  {:<14} |Dom| = {:<4} {{{}{}}}",
            attr.name(),
            attr.domain_size(),
            labels.join(", "),
            ellipsis
        );
    }
    println!("\nform HTML (Figure 3 analogue):\n");
    let form = WebForm::new(schema, "/search");
    for line in form.render_html().lines().take(12) {
        println!("  {line}");
    }
    println!("  …");
    Ok(())
}

/// Report a site's stop reason: failure is a command failure (scripts
/// polling `sample --remote` rely on the exit code), early stops are
/// noted, the target is silent.
fn check_site_stopped(site: &SiteReport) -> Result<(), String> {
    match &site.stopped {
        hdsampler_core::StopReason::TargetReached => Ok(()),
        hdsampler_core::StopReason::Failed(e) => Err(format!("session failed: {e}")),
        early => {
            println!("note: session stopped early ({early:?})");
            Ok(())
        }
    }
}

/// Resolve the histogram attribute list (default: the first attribute).
fn wanted_histograms(schema: &Schema, requested: &[String]) -> Result<Vec<Histogram>, String> {
    let names: Vec<String> = if requested.is_empty() {
        vec![schema.attributes()[0].name().to_owned()]
    } else {
        requested.to_vec()
    };
    names
        .iter()
        .map(|name| {
            schema
                .attr_by_name(name)
                .map(|attr| Histogram::new(schema, attr))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Run one `sample` plan over a single site task, streaming progress and
/// live histograms through attached sinks, and return the report plus
/// the final (online-built) histograms.
#[allow(clippy::too_many_arguments)]
fn run_sample_plan<T>(
    common: &Common,
    task: &mut SiteTask<T>,
    schema: &Schema,
    requested: &[String],
    walkers: usize,
    conns: Option<usize>,
    watch: bool,
    telemetry: &TelemetryOpts,
) -> Result<(RunReport, Vec<Histogram>), String>
where
    T: Transport + AsyncTransport + Clocked,
{
    let scope = scope_query(schema, &common.binds)?;
    let mut hists = wanted_histograms(schema, requested)?;
    let mut progress = ProgressSink::new(25);
    let mut watch_sink = watch.then(|| WatchSink::new(hists.clone(), 25, 40));
    let mut observers = PlanTelemetry::start(telemetry)?;
    let mut plan = RunPlan::target(common.samples)
        .walkers(walkers)
        .seed(common.seed)
        .slider(common.slider)
        .scope(scope)
        .driver(Driver::Coop { conns })
        .attach(&mut progress);
    for hist in hists.iter_mut() {
        plan = plan.attach(hist);
    }
    if let Some(w) = watch_sink.as_mut() {
        plan = plan.attach(w);
    }
    let plan = observers.attach(plan);
    let report = plan.run(std::slice::from_mut(task));
    println!();
    observers.finish()?;
    Ok((report, hists))
}

/// The per-session summary + history-cache lines shared by every
/// `sample` surface.
fn print_session_block(site: &SiteReport) {
    println!("{}", display::summary(&site.stats));
    println!(
        "history cache: {} shards (autotuned), {} hits, {} evictions",
        site.history.shard_count,
        site.history.total_hits(),
        site.history.evictions
    );
    print_l2_block(&site.history, None);
}

/// The persistent-tier summary line, printed only when an L2 log was
/// actually attached (any of its counters moved).
fn print_l2_block(hist: &hdsampler_core::HistoryStats, fingerprint: Option<&str>) {
    if hist.l2_loads == 0 && hist.l2_hits == 0 && hist.l2_misses == 0 && hist.l2_puts == 0 {
        return;
    }
    let site = fingerprint.map(|fp| format!(" [{fp}]")).unwrap_or_default();
    let torn = if hist.l2_skipped > 0 {
        format!(", {} torn line(s) skipped", hist.l2_skipped)
    } else {
        String::new()
    };
    println!(
        "l2 history{site}: {} fact(s) loaded, {} hits, {} misses, {} puts{torn}",
        hist.l2_loads, hist.l2_hits, hist.l2_misses, hist.l2_puts
    );
}

#[allow(clippy::too_many_arguments)]
fn sample(
    common: &Common,
    locator: Option<&str>,
    histograms: &[String],
    record: Option<&str>,
    walkers: usize,
    conns: Option<usize>,
    watch: bool,
    telemetry: &TelemetryOpts,
    l2: Option<&str>,
) -> Result<(), String> {
    let loc = effective_locator(common, locator)?;
    let opts = ConnectOptions {
        record: record.map(str::to_string),
        l2: l2.map(str::to_string),
    };
    // Every wire goes through the same connector: the schema, k and count
    // support are discovered by scraping the site's `/`, never configured.
    let mut task = ConnectorRegistry::standard().connect(&loc, &opts)?;
    let schema = task.iface.schema().clone();
    if locator.is_some() {
        println!(
            "site {loc}: discovered a {}-attribute form off `/`",
            schema.arity()
        );
    }
    let conns = if let SiteLocator::Http { addr } = &loc {
        // Without an explicit --conns, fan out over a reactor-sized
        // default: the event-driven server multiplexes them all on epoll,
        // and `.min(walkers)` keeps small runs at one socket per walker.
        let conns = conns.unwrap_or(DEFAULT_REMOTE_CONNS).min(walkers);
        println!(
            "sampling live server http://{addr} over real TCP: {walkers} walker(s), \
             {conns} connection(s)"
        );
        Some(conns)
    } else {
        conns
    };
    let (report, hists) = run_sample_plan(
        common, &mut task, &schema, histograms, walkers, conns, watch, telemetry,
    )?;
    let site = report.site();
    print_session_block(site);
    if let Some(log) = task.l2() {
        println!("l2 history: persisted under `{}`", log.dir().display());
    }
    if walkers > 1 {
        println!(
            "walkers: {walkers} walk machine(s) over {} pipelined connection(s), {} history hits",
            report.details[0].connections, site.history_hits
        );
    }
    check_site_stopped(site)?;
    if let Some(path) = record {
        println!(
            "tape: exchanges recorded to `{path}` — replay offline with `sample replay:{path}`"
        );
    }
    // The histograms were built online, sample by sample, by the attached
    // sinks — rendering them is a pure snapshot read.
    for hist in &hists {
        println!("\n{}", hist.render(40));
    }
    Ok(())
}

fn aggregate(
    common: &Common,
    proportions: &[(String, String)],
    avgs: &[String],
) -> Result<(), String> {
    let db = build_site(common)?;
    let schema = db.schema().clone();
    let (samples, _) = run_session(&db, common)?;
    let est = Estimator::new(&samples);
    println!();
    for (attr_name, label) in proportions {
        let attr = schema.attr_by_name(attr_name).map_err(|e| e.to_string())?;
        let value = schema
            .attr_unchecked(attr)
            .parse_label(label)
            .ok_or_else(|| format!("`{label}` is not a value of `{attr_name}`"))?;
        let p = est.proportion(|r| r.values[attr.index()] == value);
        println!(
            "  proportion({attr_name}={label})  = {:.2}% ± {:.2}%",
            p.value * 100.0,
            p.half_width * 100.0
        );
    }
    for m_name in avgs {
        let m = schema.measure_by_name(m_name).map_err(|e| e.to_string())?;
        let a = est.avg(m, |_| true);
        println!(
            "  avg({m_name})             = {:.2} ± {:.2}",
            a.value, a.half_width
        );
    }
    if proportions.is_empty() && avgs.is_empty() {
        println!("  (nothing requested — pass --proportion attr=label or --avg measure)");
    }
    Ok(())
}

fn validate(common: &Common, attr_name: Option<&str>) -> Result<(), String> {
    let db = build_site(common)?;
    let schema = db.schema().clone();
    let (samples, _) = run_session(&db, common)?;
    let attr = match attr_name {
        Some(n) => schema.attr_by_name(n).map_err(|e| e.to_string())?,
        None => schema.attr_ids().next().ok_or("schema has no attributes")?,
    };
    let hist = Histogram::from_rows(&schema, attr, samples.rows());
    let cmp = MarginalComparison::new(
        &schema,
        attr,
        hist.proportions(),
        db.oracle().marginal(attr),
    );
    println!("\n{}", cmp.render(0.01));
    // Per-tuple skew metrics over the same stream (online face). Both can
    // go non-finite (χ² needs draws, KL is ∞ when the estimate puts mass
    // where the truth has none) — `fmt_stat` renders inf/n-a table-safe.
    let mut freq = OnlineFrequencies::new();
    for row in samples.rows() {
        freq.add(row.key);
    }
    println!(
        "skew: chi^2 vs uniform = {} over {} tuples | KL(sampled ‖ truth) = {}",
        fmt_stat(freq.chi_square_uniform(db.n_tuples()), 1),
        db.n_tuples(),
        fmt_stat(cmp.kl(), 4),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Common;

    fn quick_common() -> Common {
        Common {
            n: 400,
            k: 50,
            samples: 20,
            ..Common::default()
        }
    }

    #[test]
    fn build_site_sources() {
        assert!(build_site(&quick_common()).is_ok());
        let full = Common {
            source: "vehicles-full".into(),
            ..quick_common()
        };
        assert!(build_site(&full).is_ok());
        let boolean = Common {
            source: "boolean".into(),
            ..quick_common()
        };
        assert!(build_site(&boolean).is_ok());
        let bad = Common {
            source: "nope".into(),
            ..quick_common()
        };
        assert!(build_site(&bad).is_err());
    }

    #[test]
    fn end_to_end_sample_command() {
        let common = quick_common();
        sample(
            &common,
            None,
            &["make".into()],
            None,
            1,
            None,
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_sample_with_locator() {
        // The positional-locator path: dataset, n, k and seed all live in
        // the locator; schema comes off the scraped landing page.
        let common = Common {
            samples: 15,
            ..Common::default()
        };
        sample(
            &common,
            Some("local:vehicles-compact?n=400&k=50&seed=9"),
            &["make".into()],
            None,
            1,
            None,
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap();
        // Unknown datasets fail early with the registry's hint.
        let err = sample(
            &common,
            Some("local:vehicles-compat?n=400"),
            &[],
            None,
            1,
            None,
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap_err();
        assert!(err.contains("did you mean `vehicles-compact`?"), "{err}");
    }

    #[test]
    fn end_to_end_record_then_replay() {
        // `sample <local> --record tape` then `sample replay:tape` with no
        // flags at all: the tape carries discovery and every page.
        let tape = std::env::temp_dir().join(format!("hds_cli_tape_{}.jsonl", std::process::id()));
        let tape_str = tape.to_str().unwrap().to_string();
        let common = Common {
            samples: 10,
            ..Common::default()
        };
        sample(
            &common,
            Some("local:vehicles-compact?n=400&k=50&seed=4"),
            &["make".into()],
            Some(&tape_str),
            1,
            None,
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap();
        sample(
            &common,
            Some(&format!("replay:{tape_str}")),
            &["make".into()],
            None,
            1,
            None,
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap();
        std::fs::remove_file(&tape).ok();
    }

    #[test]
    fn end_to_end_aggregate_command() {
        let common = quick_common();
        aggregate(
            &common,
            &[("make".to_string(), "Toyota".to_string())],
            &["price_usd".to_string()],
        )
        .unwrap();
        // Unknown label is a user error, not a panic.
        assert!(aggregate(&common, &[("make".to_string(), "Tesla".to_string())], &[],).is_err());
    }

    #[test]
    fn end_to_end_validate_command() {
        validate(&quick_common(), Some("make")).unwrap();
        assert!(validate(&quick_common(), Some("bogus")).is_err());
    }

    #[test]
    fn end_to_end_multi_site_command() {
        let common = Common {
            n: 300,
            k: 50,
            samples: 15,
            ..Common::default()
        };
        multi_site(
            &common,
            3,
            2,
            &[100],
            0,
            None,
            false,
            None,
            false,
            &TelemetryOpts::default(),
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_multi_site_chaos_command() {
        let common = Common {
            n: 300,
            k: 50,
            samples: 15,
            ..Common::default()
        };
        let spec =
            ChaosSpec::parse("seed=3,throttle=0.15,retry_after=80,fail=0.05,drop=0.03").unwrap();
        // The adversarial fleet still converges, with and without
        // work-stealing.
        multi_site(
            &common,
            3,
            2,
            &[40],
            0,
            None,
            false,
            Some(spec.clone()),
            false,
            &TelemetryOpts::default(),
        )
        .unwrap();
        multi_site(
            &common,
            3,
            2,
            &[40],
            0,
            None,
            false,
            Some(spec),
            true,
            &TelemetryOpts::default(),
        )
        .unwrap();
    }

    #[test]
    fn sample_remote_round_trip() {
        // Boot a real server on an ephemeral port and point `sample
        // --remote` at it.
        let common = quick_common();
        let db = build_db(&common, common.seed).unwrap();
        let schema = Arc::new(db.schema().clone());
        let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
        let handle = HttpServer::serve(ServerConfig::default(), site).unwrap();
        let remote_common = Common {
            remote: Some(handle.addr().to_string()),
            ..common
        };
        sample(
            &remote_common,
            None,
            &["make".into()],
            None,
            1,
            None,
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap();
        let stats = handle.shutdown();
        assert!(stats.requests > 0, "the session must hit the live server");
        assert_eq!(stats.responses_server_error, 0);
    }

    #[test]
    fn sample_remote_coop_round_trip() {
        // The cooperative path against a live server: 16 walker machines
        // pipelined over 2 TCP connections, one client thread.
        let common = quick_common();
        let db = build_db(&common, common.seed).unwrap();
        let schema = Arc::new(db.schema().clone());
        let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
        let handle = HttpServer::serve(ServerConfig::default(), site).unwrap();
        let remote_common = Common {
            remote: Some(handle.addr().to_string()),
            ..common
        };
        sample(
            &remote_common,
            None,
            &["make".into()],
            None,
            16,
            Some(2),
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap();
        let stats = handle.shutdown();
        assert!(stats.requests > 0);
        assert_eq!(stats.responses_server_error, 0);
        assert_eq!(
            stats.connections, 3,
            "schema discovery dials one connection, then 16 walkers share \
             exactly the 2 requested pipelined connections"
        );
    }

    #[test]
    fn sample_remote_rides_out_a_served_adversary() {
        // The `serve --chaos` analogue: a live server answering through an
        // Adversary, sampled over real TCP with the default retry policy.
        let common = quick_common();
        let db = build_db(&common, common.seed).unwrap();
        let schema = Arc::new(db.schema().clone());
        let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
        let spec =
            ChaosSpec::parse("seed=11,throttle=0.15,retry_after=40,fail=0.05,drop=0.05").unwrap();
        let adversary = Arc::new(Adversary::new(site, spec));
        let handle = HttpServer::serve(ServerConfig::default(), Arc::clone(&adversary)).unwrap();
        let remote_common = Common {
            remote: Some(handle.addr().to_string()),
            ..common
        };
        sample(
            &remote_common,
            None,
            &["make".into()],
            None,
            1,
            None,
            false,
            &TelemetryOpts::default(),
            None,
        )
        .unwrap();
        let stats = handle.shutdown();
        let injected = adversary.counters();
        assert!(
            injected.throttles + injected.transient_fails + injected.drops > 0,
            "the schedule must actually have fired: {injected:?}"
        );
        assert_eq!(stats.connections_dropped, injected.drops);
    }

    #[test]
    fn end_to_end_multi_site_coop_command() {
        let common = Common {
            n: 300,
            k: 50,
            samples: 15,
            ..Common::default()
        };
        multi_site(
            &common,
            3,
            4,
            &[100],
            0,
            None,
            false,
            None,
            false,
            &TelemetryOpts::default(),
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_multi_site_heterogeneous_latency() {
        let common = Common {
            n: 300,
            k: 50,
            samples: 10,
            ..Common::default()
        };
        multi_site(
            &common,
            3,
            2,
            &[50, 100, 250],
            20,
            None,
            false,
            None,
            false,
            &TelemetryOpts::default(),
        )
        .unwrap();
    }

    #[test]
    fn multi_site_applies_and_validates_binds() {
        let common = Common {
            n: 300,
            k: 50,
            samples: 10,
            binds: vec![("condition".to_string(), "used".to_string())],
            ..Common::default()
        };
        multi_site(
            &common,
            2,
            1,
            &[100],
            0,
            None,
            false,
            None,
            false,
            &TelemetryOpts::default(),
        )
        .unwrap();
        let bad = Common {
            binds: vec![("condition".to_string(), "imaginary".to_string())],
            ..common
        };
        assert!(multi_site(
            &bad,
            2,
            1,
            &[100],
            0,
            None,
            false,
            None,
            false,
            &TelemetryOpts::default()
        )
        .is_err());
    }

    #[test]
    fn multi_site_fleet_sites_have_distinct_data() {
        let common = quick_common();
        let fleet = build_fleet(&common, 2, &[50], 0).unwrap();
        let a = fleet[0].iface.transport().inner().backend();
        let b = fleet[1].iface.transport().inner().backend();
        // Different seeds ⇒ (almost surely) different marginals; check a
        // cheap fingerprint rather than whole tables.
        assert_eq!(a.n_tuples(), b.n_tuples());
        let fp = |db: &HiddenDb| {
            let attr = db.schema().attr_ids().next().unwrap();
            db.oracle().marginal(attr)
        };
        assert_ne!(fp(a), fp(b), "sites must simulate distinct databases");
    }

    #[test]
    fn trace_journal_replays_bit_identically_and_reports() {
        // The acceptance property at the CLI surface: a seeded
        // virtual-wire `--trace` run writes the same journal bytes every
        // time, and `trace report` digests it.
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let p1 = dir.join(format!("hds_trace_a_{pid}.jsonl"));
        let p2 = dir.join(format!("hds_trace_b_{pid}.jsonl"));
        let common = Common {
            samples: 15,
            ..Common::default()
        };
        let run = |path: &std::path::Path| {
            sample(
                &common,
                Some("local:vehicles-compact?n=400&k=50&seed=9&latency=40"),
                &[],
                None,
                4,
                Some(2),
                false,
                &TelemetryOpts::new(Some(path.to_str().unwrap().to_string()), None),
                None,
            )
            .unwrap();
        };
        run(&p1);
        run(&p2);
        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(&p2).unwrap();
        assert!(!a.is_empty(), "the journal must not be empty");
        assert_eq!(a, b, "seeded virtual-wire journals replay bit-identically");
        // The journal carries the full span stream.
        let events = read_journal(&p1).unwrap();
        assert!(events.iter().any(|e| e.kind == "wire"));
        assert!(events.iter().any(|e| e.kind == "sample"));
        trace_report(p1.to_str().unwrap()).unwrap();
        assert!(trace_report("definitely_not_a_journal.jsonl").is_err());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn telemetry_plane_scrapes_and_retires() {
        // `--metrics 0` boots a live plane on an ephemeral port; its
        // /metrics endpoint parses, and finish() retires it cleanly.
        let opts = TelemetryOpts::new(None, Some("0".into()));
        let telem = PlanTelemetry::start(&opts).unwrap();
        let addr = telem.plane.as_ref().unwrap().addr().to_string();
        let t = hdsampler_webform::HttpTransport::new(addr);
        let text = t.fetch("/metrics").unwrap();
        let parsed = hdsampler_core::parse_exposition(&text).unwrap();
        assert!(parsed.contains_key("hds_server_requests_total"));
        telem.finish().unwrap();
        // A non-numeric port is a user error, not a panic.
        assert!(PlanTelemetry::start(&TelemetryOpts::new(None, Some("lots".into()))).is_err());
    }

    #[test]
    fn binds_scope_the_session() {
        let common = Common {
            binds: vec![("condition".to_string(), "used".to_string())],
            ..quick_common()
        };
        let db = build_site(&common).unwrap();
        let (samples, _) = run_session(&db, &common).unwrap();
        let cond = db.schema().attr_by_name("condition").unwrap();
        assert!(samples.rows().all(|r| r.values[cond.index()] == 1));
    }
}
