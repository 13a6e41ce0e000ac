//! Command implementations.
//!
//! Every command names its site with a [`SiteLocator`] and reaches it
//! through the [`ConnectorRegistry`], which discovers the schema off the
//! site's `/`; every sampling command then runs one [`RunPlan`].

use std::io::Write as _;
use std::sync::Arc;

use hdsampler_core::{MetricsRegistry, MetricsSink, SampleSet, SamplerStats, TraceEvent, TraceLog};
use hdsampler_estimator::{fmt_stat, Estimator, Histogram, MarginalComparison, OnlineFrequencies};
use hdsampler_model::{ConjunctiveQuery, FormInterface, Schema};
use hdsampler_server::{
    render_server_metrics, Adversary, BridgeSink, HttpServer, Response, ServerConfig, ServerHandle,
    SiteBehavior,
};
use hdsampler_webform::{
    read_journal, summarize, watch_events, write_journal, BoxTransport, ConnectOptions,
    ConnectorRegistry, Driver, LocalParams, LocalSite, RunPlan, RunReport, SiteLocator, SiteReport,
    SiteTask, WebForm,
};

use crate::args::{CacheAction, Cli, Command, Common, RunOpts, TraceAction};
use crate::display::{self, progress_line, ProgressSink, WatchSink};

fn scope_query(schema: &Schema, binds: &[(String, String)]) -> Result<ConjunctiveQuery, String> {
    ConjunctiveQuery::from_named(schema, binds.iter().map(|(a, b)| (a.as_str(), b.as_str())))
        .map_err(|e| e.to_string())
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

/// The live half of a run's observability, resolved from a run's
/// [`RunOpts`]: a journal accumulator for `--trace`, and (for
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
    fn start(opts: &RunOpts) -> Result<Self, String> {
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
    let common = &cli.common;
    match cli.command {
        Command::Describe { site } => describe(&site),
        Command::Sample {
            site,
            histograms,
            record,
            run,
        } => sample(common, &site, &histograms, record.as_deref(), &run).map(drop),
        Command::Aggregate {
            site,
            proportions,
            avgs,
        } => aggregate(common, &site, &proportions, &avgs).map(drop),
        Command::Validate { site, attr } => validate(common, &site, attr.as_deref()).map(drop),
        Command::MultiSite { sites, steal, run } => {
            multi_site(common, &sites, steal, &run).map(drop)
        }
        Command::Serve {
            site,
            port,
            serve_for,
            trace,
            metrics,
            max_conns,
        } => serve(
            &site,
            port,
            serve_for,
            trace.as_deref(),
            metrics.as_deref(),
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
/// Directories another fingerprint version wrote (older or newer) are
/// retired, since this build cannot read them: `stats` reports them, `clear` deletes them, `compact` leaves them alone.
fn cache_cmd(action: CacheAction, dir: &str) -> Result<(), String> {
    use hdsampler_core::L2Log;
    let root = std::path::Path::new(dir);
    let scan_err = |e: std::io::Error| format!("cannot scan cache root `{dir}`: {e}");
    let sites = L2Log::list_sites(root).map_err(scan_err)?;
    let retired = L2Log::list_retired(root).map_err(scan_err)?;
    if sites.is_empty() && retired.is_empty() {
        println!("cache root `{dir}`: no persisted sites");
        return Ok(());
    }
    print!("cache root `{dir}`: {} site(s)", sites.len());
    if !retired.is_empty() {
        print!(", {} retired log(s) of another version", retired.len());
    }
    println!();
    for fp in sites {
        let log = L2Log::open(root, fp.clone())
            .map_err(|e| format!("cannot open site log `{}`: {e}", fp.as_str()))?;
        match action {
            CacheAction::Stats => {
                let s = log
                    .stats()
                    .map_err(|e| format!("cannot scan `{}`: {e}", fp.as_str()))?;
                println!(
                    "  {}: {} facts, {} rows in {} segment(s), {} bytes, {} skipped",
                    fp.as_str(),
                    s.facts,
                    s.rows,
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
                    "  {}: {} facts in {} segment(s) -> {} facts, {} rows in 1 segment \
                     ({} damaged record(s) dropped)",
                    fp.as_str(),
                    r.facts_before,
                    r.segments_before,
                    r.facts_after,
                    r.rows_after,
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
    for old in retired {
        match action {
            CacheAction::Stats => println!(
                "  {}: retired, {} bytes (unreadable by this version; `cache clear` deletes it)",
                old.name, old.bytes
            ),
            CacheAction::Compact => println!("  {}: retired, left as is", old.name),
            CacheAction::Clear => {
                std::fs::remove_dir_all(root.join(&old.name))
                    .map_err(|e| format!("cannot delete `{}`: {e}", old.name))?;
                println!("  {}: retired, deleted", old.name);
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
    let delivered = watch_events(addr, |ev| {
        let stats = SamplerStats {
            queries_issued: ev.queries,
            requests: ev.requests,
            ..SamplerStats::default()
        };
        print!("{}", progress_line(ev.collected, ev.target, &stats));
        let _ = std::io::stdout().flush();
        true
    })?;
    println!("\nstream closed after {delivered} accepted-sample event(s)");
    Ok(())
}

/// Put a `local:` site behind a real HTTP front door on 127.0.0.1,
/// hidden behind a fault-injecting [`Adversary`] when the locator carries
/// `chaos=`.
fn serve(
    loc: &SiteLocator,
    port: u16,
    serve_for: Option<u64>,
    trace: Option<&str>,
    metrics: Option<&str>,
    max_conns: usize,
) -> Result<(), String> {
    let params = LocalParams::parse(loc)?;
    if let SiteLocator::Local { params: pairs, .. } = loc {
        if let Some((key, _)) = pairs
            .iter()
            .find(|(key, _)| matches!(key.as_str(), "latency" | "jitter" | "l2"))
        {
            return Err(format!(
                "{loc}: `{key}=` configures a client's wire or cache; a served \
                 site answers over real TCP (give it to the client's locator)"
            ));
        }
    }
    let db = params.build_db().map_err(|e| format!("{loc}: {e}"))?;
    let schema = Arc::new(db.schema().clone());
    let n = db.n_tuples();
    let k = db.result_limit();
    let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
    let action = site.form().action().to_string();
    let cfg = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        max_conns,
        ..ServerConfig::default()
    };
    // The adversary (when any) is kept on this side too, so the shutdown
    // report can print what it injected.
    let adversary = params
        .chaos
        .map(|spec| Arc::new(Adversary::new(Arc::clone(&site), spec)));
    let handle = match &adversary {
        Some(adv) => HttpServer::serve(cfg, Arc::clone(adv)),
        None => HttpServer::serve(cfg, site),
    }
    .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    println!(
        "serving `{}` (n = {n}, top-{k}) on http://{} — form at /, results at {action}",
        params.dataset,
        handle.addr()
    );
    println!("telemetry: /metrics exposition and /events live stream on the same port");
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
            println!(
                "reactor: {} wakeups, {} ready events, {} accepts, {} timers fired, \
                 {} connection(s) still open",
                stats.reactor_wakeups,
                stats.reactor_ready_events,
                stats.reactor_accepts,
                stats.timers_fired,
                stats.open_connections,
            );
            if let Some(path) = metrics {
                std::fs::write(path, render_server_metrics(&stats, None))
                    .map_err(|e| format!("cannot write metrics exposition `{path}`: {e}"))?;
                println!("metrics: final exposition written to `{path}`");
            }
            if let Some(path) = trace {
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

/// Pipelined connections per live site when `--conns` is not given:
/// `serve` multiplexes every connection onto per-core readiness loops, so
/// a wide fan-out costs it slab slots, not threads — 64 connections keeps
/// per-connection pipelines shallow (better latency under cancellation)
/// while staying far below fd limits.
const DEFAULT_REMOTE_CONNS: usize = 64;

/// Connections per site. On the virtual wire: `--conns`, else one per
/// walker. With a live server: `--conns` (default
/// [`DEFAULT_REMOTE_CONNS`]), never more than one per walker.
fn site_conns(live: bool, run: &RunOpts) -> Option<usize> {
    if live {
        Some(run.conns.unwrap_or(DEFAULT_REMOTE_CONNS).min(run.walkers))
    } else {
        run.conns
    }
}

/// `multi-site --site a --site b …`: one leg per locator — mixed
/// `local:`, `http://` and `replay:` wires, each discovered off its own
/// `/` — driven by one [`RunPlan`]. `--bind` and `--watch` resolve against
/// one fleet-wide schema, so they need every leg to serve the same form.
fn multi_site(
    common: &Common,
    legs: &[SiteLocator],
    steal: bool,
    run: &RunOpts,
) -> Result<RunReport, String> {
    let opts = ConnectOptions {
        record: None,
        l2: run.l2.clone(),
    };
    let mut fleet = Vec::with_capacity(legs.len());
    for (i, loc) in legs.iter().enumerate() {
        let mut task = ConnectorRegistry::standard().connect(loc, &opts)?;
        task.name = format!("site-{i}");
        fleet.push(task);
    }
    let schema = fleet[0].iface.schema().clone();
    if run.watch || !common.binds.is_empty() {
        if let Some(i) = fleet.iter().position(|t| t.iface.schema() != &schema) {
            return Err(format!(
                "--watch and --bind need one fleet-wide schema, but leg `{}` serves a \
                 different form than `{}`",
                legs[i], legs[0]
            ));
        }
    }
    let scope = scope_query(&schema, &common.binds)?;
    let adversarial = legs
        .iter()
        .filter(|loc| LocalParams::parse(loc).is_ok_and(|p| p.chaos.is_some()))
        .count();
    println!(
        "fleet: {} site(s) by locator{}, {} samples per site, {} walker(s) per site",
        legs.len(),
        if adversarial > 0 {
            format!(" ({adversarial} behind adversarial wires)")
        } else {
            String::new()
        },
        common.samples,
        run.walkers
    );
    for (task, loc) in fleet.iter().zip(legs) {
        println!("  {}: {loc}", task.name);
    }
    let live = fleet.iter().any(|task| !task.iface.wire_is_virtual());
    let conns = site_conns(live, run);
    println!(
        "driver: cooperative — one thread multiplexes every site's walkers{}{}",
        conns
            .map(|c| format!(" over {c} connection(s) per site"))
            .unwrap_or_default(),
        if steal { ", stealing enabled" } else { "" }
    );
    if let Some(root) = &run.l2 {
        println!("l2 history: persisting learned facts under `{root}/<fingerprint>/`");
    }
    let mut watch_sink = run.watch.then(|| fleet_watch_sink(&schema)).transpose()?;
    let mut observers = PlanTelemetry::start(run)?;
    let mut plan = RunPlan::target(common.samples)
        .walkers(run.walkers)
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
    for (task, site) in fleet.iter().zip(&report.fleet.sites) {
        print_l2_block(
            &site.history,
            task.l2().map(|log| log.fingerprint().as_str()),
        );
    }
    observers.finish()?;
    Ok(report)
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

/// `describe <locator>`: the form a site serves, as discovery read it
/// off the site's `/`.
fn describe(loc: &SiteLocator) -> Result<(), String> {
    let task = connect_site(loc, &ConnectOptions::default())?;
    let schema = Arc::new(task.iface.schema().clone());
    println!(
        "top-{} conjunctive form, {} measure(s), count banner {}",
        task.iface.result_limit(),
        schema.measure_arity(),
        if task.iface.supports_count() {
            "shown"
        } else {
            "absent"
        },
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

/// Run one site's plan — the one sampling path behind `sample`,
/// `aggregate` and `validate` — streaming progress and `hists` (built
/// online, sample by sample) through attached sinks, then print the
/// session block.
fn run_site_plan(
    common: &Common,
    task: &mut SiteTask<BoxTransport>,
    hists: &mut [Histogram],
    run: &RunOpts,
) -> Result<RunReport, String> {
    let live = !task.iface.wire_is_virtual();
    let conns = site_conns(live, run);
    if live {
        println!(
            "sampling live server {} over real TCP: {} walker(s), {} connection(s)",
            task.name,
            run.walkers,
            conns.unwrap_or(run.walkers)
        );
    }
    let scope = scope_query(task.iface.schema(), &common.binds)?;
    let mut progress = ProgressSink::new(25);
    let mut watch_sink = run.watch.then(|| WatchSink::new(hists.to_vec(), 25, 40));
    let mut observers = PlanTelemetry::start(run)?;
    let mut plan = RunPlan::target(common.samples)
        .walkers(run.walkers)
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
    let report = observers.attach(plan).run(std::slice::from_mut(task));
    println!();
    observers.finish()?;
    print_session_block(report.site());
    Ok(report)
}

/// The sample set of a one-site run. A failed run is a command failure
/// (scripts polling `sample http://…` rely on the exit code), an early
/// stop is noted, reaching the target is silent.
fn site_samples(report: RunReport) -> Result<SampleSet, String> {
    let site = report.fleet.sites.into_iter().next();
    let site = site.expect("a one-site plan reports one site");
    match &site.stopped {
        hdsampler_core::StopReason::TargetReached => {}
        hdsampler_core::StopReason::Failed(e) => return Err(format!("session failed: {e}")),
        early => println!("note: session stopped early ({early:?})"),
    }
    Ok(site.samples)
}

/// Connect a one-site command's locator — build, dial or load its wire —
/// and say what discovery found off its `/`.
fn connect_site(
    loc: &SiteLocator,
    opts: &ConnectOptions,
) -> Result<SiteTask<BoxTransport>, String> {
    let task = ConnectorRegistry::standard().connect(loc, opts)?;
    println!(
        "site {loc}: discovered a {}-attribute form off `/`",
        task.iface.schema().arity()
    );
    Ok(task)
}

/// The per-session summary + history-cache lines shared by every
/// `sample` surface.
fn print_session_block(site: &SiteReport) {
    println!("{}", display::summary(&site.stats));
    println!(
        "history cache: {} hits, {} evictions",
        site.history.total_hits(),
        site.history.evictions
    );
    print_l2_block(&site.history, None);
}

/// The persistent-tier summary line, printed only when an L2 log was
/// actually attached (any of its counters moved). `hist` is read when the
/// run reports, so its skipped count includes the facts the tier dropped
/// on first use.
fn print_l2_block(hist: &hdsampler_core::HistoryStats, fingerprint: Option<&str>) {
    if hist.l2_loads == 0 && hist.l2_hits == 0 && hist.l2_misses == 0 && hist.l2_puts == 0 {
        return;
    }
    let site = fingerprint.map(|fp| format!(" [{fp}]")).unwrap_or_default();
    let damaged = if hist.l2_skipped > 0 {
        format!(", {} damaged line(s) or fact(s) skipped", hist.l2_skipped)
    } else {
        String::new()
    };
    println!(
        "l2 history{site}: {} fact(s) loaded, {} hits, {} misses, {} puts{damaged}",
        hist.l2_loads, hist.l2_hits, hist.l2_misses, hist.l2_puts
    );
}

fn sample(
    common: &Common,
    loc: &SiteLocator,
    histograms: &[String],
    record: Option<&str>,
    run: &RunOpts,
) -> Result<SampleSet, String> {
    let opts = ConnectOptions {
        record: record.map(str::to_string),
        l2: run.l2.clone(),
    };
    let mut task = connect_site(loc, &opts)?;
    let mut hists = wanted_histograms(task.iface.schema(), histograms)?;
    let report = run_site_plan(common, &mut task, &mut hists, run)?;
    if let Some(log) = task.l2() {
        println!("l2 history: persisted under `{}`", log.dir().display());
    }
    if run.walkers > 1 {
        println!(
            "walkers: {} walk machine(s) over {} pipelined connection(s), {} history hits",
            run.walkers,
            report.site().connections,
            report.site().history_hits
        );
    }
    let samples = site_samples(report)?;
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
    Ok(samples)
}

fn aggregate(
    common: &Common,
    loc: &SiteLocator,
    proportions: &[(String, String)],
    avgs: &[String],
) -> Result<SampleSet, String> {
    let mut task = connect_site(loc, &ConnectOptions::default())?;
    let schema = task.iface.schema().clone();
    let report = run_site_plan(common, &mut task, &mut [], &RunOpts::walkers(1))?;
    let samples = site_samples(report)?;
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
    Ok(samples)
}

/// `validate <local:…>`: sample the site like `sample` does, then compare
/// the sampled marginal against the truth of the site's own database.
fn validate(
    common: &Common,
    loc: &SiteLocator,
    attr_name: Option<&str>,
) -> Result<SampleSet, String> {
    // The locator is deterministic: building its database again yields
    // exactly the site the connector serves.
    let truth = LocalParams::parse(loc)?
        .build_db()
        .map_err(|e| format!("{loc}: {e}"))?;
    let mut task = connect_site(loc, &ConnectOptions::default())?;
    let schema = task.iface.schema().clone();
    let attr = match attr_name {
        Some(n) => schema.attr_by_name(n).map_err(|e| e.to_string())?,
        None => schema.attr_ids().next().ok_or("schema has no attributes")?,
    };
    let mut hist = [Histogram::new(&schema, attr)];
    let report = run_site_plan(common, &mut task, &mut hist, &RunOpts::walkers(1))?;
    let samples = site_samples(report)?;
    let cmp = MarginalComparison::new(
        &schema,
        attr,
        hist[0].proportions(),
        truth.oracle().marginal(attr),
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
        fmt_stat(freq.chi_square_uniform(truth.n_tuples()), 1),
        truth.n_tuples(),
        fmt_stat(cmp.kl(), 4),
    );
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: &str = "local:vehicles-compact?n=400&k=50";

    fn loc(s: &str) -> SiteLocator {
        SiteLocator::parse(s).unwrap()
    }

    fn with_samples(samples: usize) -> Common {
        Common {
            samples,
            ..Common::default()
        }
    }

    /// `sample` with one walker and no extras.
    fn sample_quick(common: &Common, site: &str) -> Result<SampleSet, String> {
        sample(common, &loc(site), &[], None, &RunOpts::walkers(1))
    }

    /// `multi-site` over `legs` with `walkers` per site and no extras.
    fn fleet(
        common: &Common,
        legs: &[String],
        walkers: usize,
        steal: bool,
    ) -> Result<RunReport, String> {
        let legs: Vec<SiteLocator> = legs.iter().map(|s| loc(s)).collect();
        multi_site(common, &legs, steal, &RunOpts::walkers(walkers))
    }

    /// Boot a live server over a `local:` locator's database.
    fn serve_locator(site: &str) -> ServerHandle {
        let db = LocalParams::parse(&loc(site)).unwrap().build_db().unwrap();
        let schema = Arc::new(db.schema().clone());
        HttpServer::serve(
            ServerConfig::default(),
            Arc::new(LocalSite::new(db, schema)),
        )
        .unwrap()
    }

    #[test]
    fn describe_sources() {
        for site in [
            QUICK,
            "local:vehicles-full?n=400",
            "local:boolean?n=400&counts=exact",
        ] {
            describe(&loc(site)).unwrap();
        }
        let err = describe(&loc("local:nope")).unwrap_err();
        assert!(err.contains("unknown dataset"), "{err}");
        // A live site describes itself over the wire just the same.
        let handle = serve_locator(QUICK);
        describe(&loc(&format!("http://{}", handle.addr()))).unwrap();
        handle.shutdown();
    }

    #[test]
    fn end_to_end_sample_command() {
        let samples = sample_quick(&with_samples(20), QUICK).unwrap();
        assert_eq!(samples.len(), 20);
    }

    #[test]
    fn end_to_end_sample_with_locator() {
        // Dataset, n, k and seed all live in the locator; the schema comes
        // off the scraped landing page.
        let samples = sample_quick(
            &with_samples(15),
            "local:vehicles-compact?n=400&k=50&seed=9",
        )
        .unwrap();
        assert_eq!(samples.len(), 15);
        // Unknown datasets fail early with the registry's hint.
        let err = sample_quick(&with_samples(15), "local:vehicles-compat?n=400").unwrap_err();
        assert!(err.contains("did you mean `vehicles-compact`?"), "{err}");
    }

    #[test]
    fn end_to_end_record_then_replay() {
        // `sample <local> --record tape` then `sample replay:tape` with no
        // flags at all: the tape carries discovery and every page.
        let tape = std::env::temp_dir().join(format!("hds_cli_tape_{}.jsonl", std::process::id()));
        let tape_str = tape.to_str().unwrap().to_string();
        let common = with_samples(10);
        let recorded = sample(
            &common,
            &loc("local:vehicles-compact?n=400&k=50&seed=4"),
            &["make".into()],
            Some(&tape_str),
            &RunOpts::walkers(1),
        )
        .unwrap();
        let replayed = sample_quick(&common, &format!("replay:{tape_str}")).unwrap();
        assert_eq!(replayed.keys(), recorded.keys());
        std::fs::remove_file(&tape).ok();
    }

    #[test]
    fn end_to_end_aggregate_command() {
        let common = with_samples(20);
        aggregate(
            &common,
            &loc(QUICK),
            &[("make".to_string(), "Toyota".to_string())],
            &["price_usd".to_string()],
        )
        .unwrap();
        // Unknown label is a user error, not a panic.
        assert!(aggregate(
            &common,
            &loc(QUICK),
            &[("make".to_string(), "Tesla".to_string())],
            &[]
        )
        .is_err());
    }

    #[test]
    fn end_to_end_validate_command() {
        validate(&with_samples(20), &loc(QUICK), Some("make")).unwrap();
        assert!(validate(&with_samples(20), &loc(QUICK), Some("bogus")).is_err());
    }

    #[test]
    fn sample_aggregate_and_validate_see_one_key_sequence() {
        // One sampling path: the same locator and --seed draw the same
        // sample whichever command asks.
        let common = Common {
            seed: 77,
            ..with_samples(40)
        };
        let site = loc("local:vehicles-compact?n=400&k=50&seed=5");
        let sampled = sample(&common, &site, &[], None, &RunOpts::walkers(1)).unwrap();
        let aggregated = aggregate(&common, &site, &[], &[]).unwrap();
        let validated = validate(&common, &site, None).unwrap();
        assert_eq!(sampled.len(), 40);
        assert_eq!(aggregated.keys(), sampled.keys());
        assert_eq!(validated.keys(), sampled.keys());
    }

    /// FNV-1a over a key sequence: a compact pin for a whole sample.
    fn fnv(keys: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in keys.iter().flat_map(|k| k.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// One site's (samples, key digest, charged fetches, retries, steals).
    type SiteDigest = (usize, u64, u64, u64, u64);

    /// Every site's digest, plus the fleet's virtual milliseconds.
    fn digest(report: &RunReport) -> (Vec<SiteDigest>, u64) {
        let sites = report
            .fleet
            .sites
            .iter()
            .map(|s| {
                let keys = s.samples.keys();
                (
                    keys.len(),
                    fnv(&keys),
                    s.queries_issued,
                    s.retries,
                    s.steals,
                )
            })
            .collect();
        (sites, report.fleet.fleet_elapsed_ms)
    }

    /// The digests below were taken from the flag-built fleets these
    /// locator legs replace (`multi-site --sites 4 --latency 100,150,250
    /// --jitter 20 --n 400 --k 50`), which built each site `i` with data
    /// and jitter seed 2009 + i and latency entry `i % 3`.
    #[test]
    fn locator_legs_reproduce_the_simulated_fleet() {
        let latency = [100, 150, 250, 100];
        let legs: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "local:vehicles-compact?n=400&k=50&seed={}&latency={}&jitter=20",
                    2009 + i,
                    latency[i]
                )
            })
            .collect();
        let report = fleet(&with_samples(30), &legs, 16, false).unwrap();
        assert_eq!(
            digest(&report),
            (
                vec![
                    (30, 0xf592_fc48_d8fb_4f7f, 221, 0, 0),
                    (30, 0xa32d_38ef_9093_267d, 209, 0, 0),
                    (30, 0xd378_0378_8ad7_d2a5, 205, 0, 0),
                    (30, 0x407f_5a7d_e612_d396, 202, 0, 0),
                ],
                3036
            )
        );
        let report = fleet(&with_samples(200), &legs, 2, false).unwrap();
        assert_eq!(
            digest(&report),
            (
                vec![
                    (200, 0xfd79_ad47_82ac_41a4, 150, 0, 0),
                    (200, 0x949a_dbcf_177d_8bbc, 126, 0, 0),
                    (200, 0x6edf_63e6_9273_b899, 140, 0, 0),
                    (200, 0xad86_4c51_5d4b_f071, 124, 0, 0),
                ],
                17463
            )
        );
    }

    /// Pinned against the flag-built adversarial fleet (`multi-site
    /// --sites 3 --walkers 4 --samples 30 --n 400 --k 50 --chaos
    /// seed=7,…`), which offset the spec seed by the site index.
    #[test]
    fn chaos_legs_reproduce_the_adversarial_fleet() {
        let legs: Vec<String> = (0..3)
            .map(|i| {
                format!(
                    "local:vehicles-compact?n=400&k=50&seed={}&chaos=seed={},latency=40,\
                     throttle=0.3,retry_after=120,fail=0.08,drop=0.04,slow=200x30,jitter=20,\
                     count_noise=0.3",
                    2009 + i,
                    7 + i
                )
            })
            .collect();
        let still = fleet(&with_samples(30), &legs, 4, false).unwrap();
        assert_eq!(
            digest(&still),
            (
                vec![
                    (30, 0x8e38_93f4_b5c2_b27b, 148, 95, 0),
                    (30, 0x0d7e_bac0_000e_490a, 141, 68, 0),
                    (30, 0xb1fb_b3f7_071f_5c69, 131, 77, 0),
                ],
                6344
            )
        );
        let stealing = fleet(&with_samples(30), &legs, 4, true).unwrap();
        assert_eq!(
            digest(&stealing),
            (
                vec![
                    (30, 0x07ad_0ef1_29cc_b7ce, 154, 91, 8),
                    (30, 0x0d7e_bac0_000e_490a, 141, 68, 0),
                    (30, 0xb1fb_b3f7_071f_5c69, 131, 77, 0),
                ],
                5754
            )
        );
    }

    #[test]
    fn end_to_end_multi_site_command() {
        let legs: Vec<String> = (0..3)
            .map(|i| format!("local:vehicles-compact?n=300&k=50&seed={i}&latency=100"))
            .collect();
        let report = fleet(&with_samples(15), &legs, 2, false).unwrap();
        assert_eq!(report.total_samples(), 45);
    }

    #[test]
    fn end_to_end_multi_site_chaos_command() {
        // The adversarial fleet still converges, with and without
        // work-stealing; a spec without latency takes the leg's.
        let legs: Vec<String> = (0..3)
            .map(|i| {
                format!(
                    "local:vehicles-compact?n=300&k=50&latency=40&\
                     chaos=seed={},throttle=0.15,retry_after=80,fail=0.05,drop=0.03",
                    3 + i
                )
            })
            .collect();
        for steal in [false, true] {
            let report = fleet(&with_samples(15), &legs, 2, steal).unwrap();
            assert_eq!(report.total_samples(), 45);
            assert!(report.fleet.total_retries() > 0, "the faults fired");
        }
        // A chaos spec brings its own jitter.
        let err = fleet(
            &with_samples(5),
            &["local:boolean?jitter=5&chaos=fail=0.1".to_string()],
            1,
            false,
        )
        .unwrap_err();
        assert!(err.contains("jitter"), "{err}");
    }

    #[test]
    fn sample_remote_round_trip() {
        // Boot a real server on an ephemeral port and sample it by its
        // http:// locator.
        let handle = serve_locator(QUICK);
        let samples =
            sample_quick(&with_samples(20), &format!("http://{}", handle.addr())).unwrap();
        assert_eq!(samples.len(), 20);
        let stats = handle.shutdown();
        assert!(stats.requests > 0, "the session must hit the live server");
        assert_eq!(stats.responses_server_error, 0);
    }

    #[test]
    fn sample_remote_coop_round_trip() {
        // The cooperative path against a live server: 16 walker machines
        // pipelined over 2 TCP connections, one client thread.
        let handle = serve_locator(QUICK);
        let run = RunOpts {
            conns: Some(2),
            ..RunOpts::walkers(16)
        };
        let site = loc(&format!("http://{}", handle.addr()));
        sample(&with_samples(20), &site, &[], None, &run).unwrap();
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
        // What `serve` builds for a `chaos=` locator: a live server
        // answering through an Adversary, sampled over real TCP with the
        // default retry policy.
        let served = loc("local:vehicles-compact?n=400&k=50&\
             chaos=seed=11,throttle=0.15,retry_after=40,fail=0.05,drop=0.05");
        let params = LocalParams::parse(&served).unwrap();
        let db = params.build_db().unwrap();
        let schema = Arc::new(db.schema().clone());
        let site = Arc::new(LocalSite::new(db, schema));
        let adversary = Arc::new(Adversary::new(site, params.chaos.unwrap()));
        let handle = HttpServer::serve(ServerConfig::default(), Arc::clone(&adversary)).unwrap();
        sample_quick(&with_samples(20), &format!("http://{}", handle.addr())).unwrap();
        let stats = handle.shutdown();
        let injected = adversary.counters();
        assert!(
            injected.throttles + injected.transient_fails + injected.drops > 0,
            "the schedule must actually have fired: {injected:?}"
        );
        assert_eq!(stats.connections_dropped, injected.drops);
    }

    #[test]
    fn serve_rejects_client_wire_parameters() {
        for param in ["latency=40", "jitter=5", "l2=hist"] {
            let site = loc(&format!("local:boolean?{param}"));
            let err = serve(&site, 0, Some(0), None, None, 0).unwrap_err();
            assert!(err.contains(param.split('=').next().unwrap()), "{err}");
        }
    }

    #[test]
    fn end_to_end_multi_site_coop_command() {
        let legs: Vec<String> = (0..3)
            .map(|i| format!("local:vehicles-compact?n=300&k=50&seed={i}&latency=100"))
            .collect();
        let report = fleet(&with_samples(15), &legs, 4, false).unwrap();
        assert_eq!(report.total_samples(), 45);
        assert!(report.fleet.sites.iter().all(|s| s.connections == 4));
    }

    #[test]
    fn end_to_end_multi_site_heterogeneous_latency() {
        let legs: Vec<String> = [50, 100, 250]
            .iter()
            .map(|ms| format!("local:vehicles-compact?n=300&k=50&latency={ms}&jitter=20"))
            .collect();
        let report = fleet(&with_samples(10), &legs, 2, false).unwrap();
        let elapsed: Vec<u64> = report.fleet.sites.iter().map(|s| s.elapsed_ms).collect();
        assert!(
            elapsed[0] < elapsed[2],
            "the 50 ms leg finishes before the 250 ms leg: {elapsed:?}"
        );
    }

    #[test]
    fn multi_site_applies_and_validates_binds() {
        let legs: Vec<SiteLocator> = (0..2)
            .map(|i| loc(&format!("local:vehicles-compact?n=300&k=50&seed={i}")))
            .collect();
        let common = Common {
            binds: vec![("condition".to_string(), "used".to_string())],
            ..with_samples(10)
        };
        // --bind and --watch resolve against the legs' one schema.
        let watch = RunOpts {
            watch: true,
            ..RunOpts::walkers(1)
        };
        let report = multi_site(&common, &legs, false, &watch).unwrap();
        for site in &report.fleet.sites {
            assert!(
                site.samples.rows().all(|r| r.values[3] == 1),
                "condition=used"
            );
        }
        let bad = Common {
            binds: vec![("condition".to_string(), "imaginary".to_string())],
            ..common.clone()
        };
        assert!(multi_site(&bad, &legs, false, &RunOpts::walkers(1)).is_err());
        // Over legs with different schemas, both fail naming the odd leg.
        let mixed = vec![legs[0].clone(), loc("local:boolean?n=300&k=50")];
        let err = multi_site(&common, &mixed, false, &RunOpts::walkers(1)).unwrap_err();
        assert!(err.contains("local:boolean?n=300&k=50"), "{err}");
        let err = multi_site(&with_samples(10), &mixed, false, &watch).unwrap_err();
        assert!(err.contains("--watch"), "{err}");
    }

    #[test]
    fn multi_site_fleet_sites_have_distinct_data() {
        // Legs with different data seeds simulate different databases:
        // the unconstrained query's top-k differs.
        let first_page = |seed: u64| {
            let site = loc(&format!("local:vehicles-compact?n=400&k=50&seed={seed}"));
            let task = connect_site(&site, &ConnectOptions::default()).unwrap();
            let rows = task.iface.execute(&ConjunctiveQuery::empty()).unwrap().rows;
            rows.iter().map(|r| r.values.clone()).collect::<Vec<_>>()
        };
        assert_ne!(first_page(2009), first_page(2010));
        assert_eq!(first_page(2009), first_page(2009));
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
        let run = |path: &std::path::Path| {
            let run = RunOpts {
                conns: Some(2),
                trace: Some(path.to_str().unwrap().to_string()),
                ..RunOpts::walkers(4)
            };
            let site = loc("local:vehicles-compact?n=400&k=50&seed=9&latency=40");
            sample(&with_samples(15), &site, &[], None, &run).unwrap();
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
        use hdsampler_webform::Transport as _;
        let plane = |port: &str| RunOpts {
            metrics: Some(port.into()),
            ..RunOpts::walkers(1)
        };
        let telem = PlanTelemetry::start(&plane("0")).unwrap();
        let addr = telem.plane.as_ref().unwrap().addr().to_string();
        let t = hdsampler_webform::HttpTransport::new(addr);
        let text = t.fetch("/metrics").unwrap();
        let parsed = hdsampler_core::parse_exposition(&text).unwrap();
        assert!(parsed.contains_key("hds_server_requests_total"));
        telem.finish().unwrap();
        // A non-numeric port is a user error, not a panic.
        assert!(PlanTelemetry::start(&plane("lots")).is_err());
    }

    #[test]
    fn binds_scope_the_session() {
        let common = Common {
            binds: vec![("condition".to_string(), "used".to_string())],
            ..with_samples(20)
        };
        let samples = sample_quick(&common, QUICK).unwrap();
        assert_eq!(samples.len(), 20);
        let cond = loc(QUICK);
        let schema = LocalParams::parse(&cond).unwrap().build_db().unwrap();
        let cond = schema.schema().attr_by_name("condition").unwrap();
        assert!(samples.rows().all(|r| r.values[cond.index()] == 1));
    }
}
