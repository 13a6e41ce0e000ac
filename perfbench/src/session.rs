//! The analyst-session workloads: `cold_local`, `cold_http`, `warm_l2`.
//!
//! Every session has one shape: dataset `vehicles-compact` (n = 5000,
//! k = 100), slider 0.3, 150 samples, one `Histogram` sink per form
//! attribute, session `i` seeded `base + i`. A session starts at connect —
//! the locator is resolved, the form discovered off `/` — and ends with
//! its last sample.
//!
//! * `cold_local`: `local:vehicles-compact?n=5000&k=100`, fresh L1 history;
//!   each connect builds the dataset in-process.
//! * `cold_http`: the same sessions against an `HttpServer` (one reactor
//!   loop) over the same dataset; each session dials its own keep-alive
//!   connection.
//! * `warm_l2`: `cold_local` with an L2 root. Set-up empties the root and
//!   warms it with a fixed set of sessions; before every timed session the
//!   root is put back to that warm state, so each session attaches the same
//!   log and its own write-behind appends are undone before the next.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use hdsampler_core::{
    CachingExecutor, HdsSampler, HistoryStats, L2Log, QueryExecutor, SampleSink, SamplerStats,
    SamplingSession, SiteFingerprint, StopReason,
};
use hdsampler_estimator::Histogram;
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::{AttrId, ConjunctiveQuery, FormInterface, Schema};
use hdsampler_server::{HttpServer, ServerConfig, ServerHandle, SiteBehavior};
use hdsampler_webform::{
    scrape_form_page, Clocked, ConnectOptions, ConnectorRegistry, Driver, FleetConfig,
    HttpTransport, LatencyTransport, LocalSite, RunPlan, SiteLocator, Transport, WebForm,
    WebFormInterface,
};
use hdsampler_workload::{resolve_dataset, DbConfig, WorkloadSpec};

use crate::layers::{per_layer_metrics, Breakdown, Counters};
use crate::timed::{
    self, TimedExec, TimedForm, TimedSampler, TimedSink, TimedSite, TimedTransport,
};
use crate::{
    host, marginal_tvd, median, percentile, run_slots, timing_note, Args, RunResult, SetupTimer,
    Slot,
};

const DATASET: &str = "vehicles-compact";
const N: usize = 5_000;
const K: usize = 100;
/// The dataset seed `local:` locators default to.
const DATA_SEED: u64 = 2_009;
const SLIDER: f64 = 0.3;
const SAMPLES: usize = 150;
/// Sessions every untraced run completes, whatever `--seconds` says; the
/// seeded counts are taken over exactly these.
const DETERMINISTIC_SESSIONS: usize = 80;
/// Traced twins every traced run completes.
const TRACED_SESSIONS: usize = 10;
/// Leading sessions re-run on the `cold_local` stack after the timed loop
/// to check that every wire yields the same samples.
const VERIFIED_SESSIONS: usize = 3;
/// Sessions that warm the L2 root during `warm_l2` set-up. Their seeds are
/// the same in every run, so every run attaches the same log.
const WARM_SESSIONS: u64 = 6;
/// The virtual round trip of the wire `local:` builds, ms.
const LOCAL_RTT_MS: f64 = 1.0;

/// Which session workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdLocal,
    ColdHttp,
    WarmL2,
}

/// What one session produced.
#[derive(Debug, Clone)]
struct SessionRun {
    keys: Vec<u64>,
    requests: u64,
    queries: u64,
    /// Per form attribute, the histogram's weights.
    hists: Vec<Vec<f64>>,
    /// Samples' total importance weight.
    weight: f64,
    stopped: StopReason,
    stats: SamplerStats,
    history: HistoryStats,
}

impl SessionRun {
    /// The session's own gate: it reached its target and every histogram
    /// saw every sample.
    fn check(&self) -> Result<(), String> {
        if self.stopped != StopReason::TargetReached || self.keys.len() != SAMPLES {
            return Err(format!(
                "stopped {:?} after {} of {SAMPLES} samples",
                self.stopped,
                self.keys.len()
            ));
        }
        for (a, h) in self.hists.iter().enumerate() {
            let total: f64 = h.iter().sum();
            if (total - self.weight).abs() > 1e-9 * self.weight.max(1.0) {
                return Err(format!(
                    "histogram {a} holds weight {total}, the samples {}",
                    self.weight
                ));
            }
        }
        Ok(())
    }

    /// What every wire must agree on for one seed: the samples, in order,
    /// and the sampler's logical requests; charged queries too unless one
    /// side's history is warm.
    fn digest(&self, with_queries: bool) -> (Vec<u64>, u64, Option<u64>) {
        (
            self.keys.clone(),
            self.requests,
            with_queries.then_some(self.queries),
        )
    }
}

fn build_db() -> HiddenDb {
    let def = resolve_dataset(DATASET).expect("the dataset is registered");
    WorkloadSpec {
        data: def.data_spec(N, DATA_SEED),
        db: DbConfig::no_counts().with_k(K),
        seed: DATA_SEED,
    }
    .build()
}

fn histograms(schema: &Schema) -> Vec<Histogram> {
    (0..schema.arity())
        .map(|a| Histogram::new(schema, AttrId(a as u16)))
        .collect()
}

/// What set-up leaves for the sessions.
struct Env {
    /// True marginals, per attribute.
    oracle: Vec<Vec<f64>>,
    l2_root: Option<PathBuf>,
    /// The warmed L2 root's files (path under the root, contents).
    l2_warm: Vec<(PathBuf, Vec<u8>)>,
    server: Option<ServerHandle>,
}

impl Env {
    fn locator(&self) -> String {
        match &self.server {
            Some(s) => format!("http://{}", s.addr()),
            None => format!("local:{DATASET}?n={N}&k={K}"),
        }
    }
}

fn serve<S: SiteBehavior + 'static>(site: S) -> ServerHandle {
    let cfg = ServerConfig {
        reactor_threads: 1,
        ..ServerConfig::default()
    };
    HttpServer::serve(cfg, Arc::new(site)).expect("bind a loopback port")
}

/// Build the dataset (for the oracle, and for the server), start the
/// server, create and warm the L2 root.
fn setup(kind: Kind, out: &Path, traced: bool) -> Env {
    let db = build_db();
    let oracle = (0..db.schema().arity())
        .map(|a| db.oracle().marginal(AttrId(a as u16)))
        .collect();
    let mut env = Env {
        oracle,
        l2_root: None,
        l2_warm: Vec::new(),
        server: None,
    };
    match kind {
        Kind::ColdLocal => {}
        Kind::ColdHttp => {
            let schema = Arc::new(db.schema().clone());
            env.server = Some(if traced {
                serve(TimedSite::new(
                    "server",
                    LocalSite::new(TimedForm::new("engine", db), schema),
                ))
            } else {
                serve(LocalSite::new(db, schema))
            });
        }
        Kind::WarmL2 => {
            let root = out.join("l2root");
            if root.exists() {
                std::fs::remove_dir_all(&root).expect("empty the L2 root");
            }
            std::fs::create_dir_all(&root).expect("create the L2 root");
            env.l2_root = Some(root.clone());
            for j in 0..WARM_SESSIONS {
                let warm = plain_session(&env, u64::MAX - j).expect("a warm-up session");
                warm.check().expect("a warm-up session reaches its target");
            }
            env.l2_warm = read_tree(&root, Path::new("")).expect("read the warm L2 root");
        }
    }
    env
}

/// Every file under `root.join(dir)`: its path under `root`, its contents.
fn read_tree(root: &Path, dir: &Path) -> std::io::Result<Vec<(PathBuf, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join(dir))? {
        let entry = entry?;
        let rel = dir.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            files.extend(read_tree(root, &rel)?);
        } else {
            files.push((rel, std::fs::read(entry.path())?));
        }
    }
    files.sort();
    Ok(files)
}

/// Put the L2 root back to its warm state (nothing to do without one).
fn rewarm(env: &Env) {
    let Some(root) = &env.l2_root else { return };
    std::fs::remove_dir_all(root).expect("empty the L2 root");
    for (rel, bytes) in &env.l2_warm {
        let path = root.join(rel);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create an L2 site directory");
        }
        std::fs::write(path, bytes).expect("restore an L2 segment");
    }
}

/// One session exactly as `sample <locator>` runs it: connect through the
/// registry, then a one-walker `RunPlan`.
fn plain_session(env: &Env, seed: u64) -> Result<SessionRun, String> {
    let loc = SiteLocator::parse(&env.locator())?;
    let opts = ConnectOptions {
        record: None,
        l2: env.l2_root.as_ref().map(|p| p.display().to_string()),
    };
    let mut task = ConnectorRegistry::standard().connect(&loc, &opts)?;
    let schema = task.iface.schema().clone();
    let mut hists = histograms(&schema);
    let mut plan = RunPlan::target(SAMPLES)
        .walkers(1)
        .seed(seed)
        .slider(SLIDER)
        .driver(Driver::Threaded);
    for h in hists.iter_mut() {
        plan = plan.attach(h);
    }
    let report = plan.run(std::slice::from_mut(&mut task));
    let site = report.site();
    Ok(SessionRun {
        keys: site.samples.keys(),
        requests: site.requests,
        queries: site.queries_issued,
        hists: hists.iter().map(|h| h.counts().to_vec()).collect(),
        weight: site.samples.total_weight(),
        stopped: site.stopped.clone(),
        stats: site.stats,
        history: site.history,
    })
}

/// The same session composed by hand from public types, every layer
/// behind a timing decorator.
fn traced_session(env: &Env, seed: u64, id: u32) -> Result<SessionRun, String> {
    timed::session(id, "session", || match &env.server {
        Some(server) => {
            let addr = server.addr().to_string();
            traced_stack(env, seed, || {
                TimedTransport::new("httpc", HttpTransport::new(addr))
            })
        }
        None => traced_stack(env, seed, || {
            let db = build_db();
            let schema = Arc::new(db.schema().clone());
            let site =
                TimedTransport::new("site", LocalSite::new(TimedForm::new("engine", db), schema));
            // The wire `connect_local` builds: 1 ms virtual latency, no jitter.
            TimedTransport::new("wire", LatencyTransport::with_jitter(site, 1, 0, DATA_SEED))
        }),
    })
}

fn traced_stack<T: Transport + Clocked>(
    env: &Env,
    seed: u64,
    make_wire: impl FnOnce() -> T,
) -> Result<SessionRun, String> {
    let (iface, fingerprint) = timed::timed("connect", || {
        let wire = make_wire();
        let page = wire.fetch("/").map_err(|e| e.to_string())?;
        let found = scrape_form_page(&page).map_err(|e| e.to_string())?;
        let fingerprint = found
            .fingerprint
            .as_deref()
            .and_then(SiteFingerprint::parse);
        let form = WebForm::new(Arc::new(found.schema), found.action);
        let iface = WebFormInterface::with_form(wire, form, found.k, found.supports_count);
        Ok::<_, String>((iface, fingerprint))
    })?;
    let iface = TimedForm::new("adapter", iface);
    let schema = iface.schema().clone();
    let mut exec = CachingExecutor::new(&iface);
    if let Some(root) = &env.l2_root {
        exec = timed::timed("l2", || {
            let fp = fingerprint.ok_or("the landing page advertised no fingerprint")?;
            let log = L2Log::open(root, fp).map_err(|e| e.to_string())?;
            Ok::<_, String>(exec.with_l2(Arc::new(log)))
        })?;
    }
    let exec = TimedExec::new("history", exec);
    let cfg = FleetConfig {
        walkers_per_site: 1,
        target_per_site: SAMPLES,
        seed,
        slider: SLIDER,
        scope: ConjunctiveQuery::empty(),
    }
    .walker_config(0, 0);
    let sampler = HdsSampler::new(&exec, cfg).map_err(|e| e.to_string())?;
    let mut sampler = TimedSampler::new("machine", sampler);
    let mut sinks: Vec<TimedSink> = histograms(&schema)
        .into_iter()
        .map(|h| TimedSink::new("estimator", Box::new(h)))
        .collect();
    let outcome = {
        let mut refs: Vec<&mut dyn SampleSink> =
            sinks.iter_mut().map(|s| s as &mut dyn SampleSink).collect();
        SamplingSession::new(SAMPLES)
            .with_site(0)
            .run_observed(&mut sampler, &mut refs, |_| {})
    };
    let hists = sinks
        .iter()
        .map(|s| {
            s.inner()
                .as_any()
                .downcast_ref::<Histogram>()
                .expect("a histogram sink")
                .counts()
                .to_vec()
        })
        .collect();
    Ok(SessionRun {
        keys: outcome.samples.keys(),
        requests: exec.requests(),
        queries: exec.queries_issued(),
        hists,
        weight: outcome.samples.total_weight(),
        stopped: outcome.reason,
        stats: outcome.stats,
        history: exec.inner().history_stats(),
    })
}

pub fn run(kind: Kind, args: &Args) -> RunResult {
    let mut r = RunResult {
        correct: true,
        ..RunResult::default()
    };
    timed::set_enabled(false);

    let setups = SetupTimer::default();
    let make = || setup(kind, &args.out, args.trace);
    let env = setups.time(make);
    let stats_before = env.server.as_ref().map(ServerHandle::stats);

    let at_least = if args.trace {
        TRACED_SESSIONS
    } else {
        DETERMINISTIC_SESSIONS
    };
    let slots = run_slots(
        args,
        at_least,
        |run| {
            if setups.due(run) {
                if let Some(server) = setups.time(make).server {
                    server.shutdown();
                }
            }
            rewarm(&env);
        },
        |seed| plain_session(&env, seed),
        |seed, id| traced_session(&env, seed, id),
    );

    // Per-session gates.
    let mut bad: Vec<bool> = vec![false; slots.len()];
    let mut traced_bad: HashSet<u32> = HashSet::new();
    for (i, s) in slots.iter().enumerate() {
        r.attempted += 1;
        if let Err(e) = s
            .plain
            .as_ref()
            .map_err(String::clone)
            .and_then(|p| p.check())
        {
            r.notes
                .push(format!("session {i} (seed {}) failed: {e}", s.seed));
            bad[i] = true;
            r.correct = false;
        }
        if let Some((t, _)) = &s.traced {
            r.attempted += 1;
            let verdict = t.as_ref().map_err(String::clone).and_then(|t| {
                t.check()?;
                match &s.plain {
                    Ok(p) if p.digest(true) != t.digest(true) => {
                        Err("traced samples differ from the untraced twin's".to_string())
                    }
                    _ => Ok(()),
                }
            });
            if let Err(e) = verdict {
                r.notes
                    .push(format!("traced session {i} (seed {}) failed: {e}", s.seed));
                r.failed += 1;
                r.correct = false;
                traced_bad.insert(i as u32 + 1);
            }
        }
    }

    // Cross-wire gate: the leading sessions again on the cold in-process
    // stack must give the same samples and requests (and charged queries
    // unless the history is warm).
    let cold = kind != Kind::WarmL2;
    let reference = Env {
        oracle: Vec::new(),
        l2_root: None,
        l2_warm: Vec::new(),
        server: None,
    };
    for (i, s) in slots.iter().enumerate().take(VERIFIED_SESSIONS) {
        let Ok(p) = &s.plain else { continue };
        match crate::guarded(|| plain_session(&reference, s.seed)) {
            Ok(want) if want.digest(cold) == p.digest(cold) => {}
            other => {
                r.notes.push(format!(
                    "session {i} (seed {}) differs from the in-process reference: {}",
                    s.seed,
                    other
                        .err()
                        .unwrap_or_else(|| "samples or counts differ".into())
                ));
                bad[i] = true;
                r.correct = false;
            }
        }
    }
    r.failed += bad.iter().filter(|b| **b).count() as u64;

    let ok: Vec<(&Slot<SessionRun>, &SessionRun)> = slots
        .iter()
        .zip(&bad)
        .filter(|(_, b)| !**b)
        .filter_map(|(s, _)| s.plain.as_ref().ok().map(|p| (s, p)))
        .collect();
    let walls: Vec<f64> = ok.iter().map(|(s, _)| s.wall.as_secs_f64() * 1e3).collect();
    let scaled: Vec<f64> = ok.iter().map(|(s, _)| s.scaled_ms()).collect();
    r.notes.push(format!(
        "{}: {} sessions ({} traced), {} failed, p50 {:.2} ms, p90 {:.2} ms over {} sessions",
        args.workload,
        slots.len(),
        slots.iter().filter(|s| s.traced.is_some()).count(),
        r.failed,
        median(&walls),
        percentile(&walls, 0.9),
        walls.len()
    ));
    let probes: Vec<f64> = slots.iter().map(|s| s.probe.as_secs_f64() * 1e3).collect();
    r.notes.push(timing_note(&walls, &scaled, &probes, &setups));

    if !args.trace {
        let samples: usize = ok.iter().map(|(_, p)| p.keys.len()).sum();
        let scaled_s: f64 = scaled.iter().sum::<f64>() / 1e3;
        // Seeded counts over the deterministic prefix only.
        let prefix: Vec<&SessionRun> = slots
            .iter()
            .zip(&bad)
            .take(DETERMINISTIC_SESSIONS)
            .filter(|(_, b)| !**b)
            .filter_map(|(s, _)| s.plain.as_ref().ok())
            .collect();
        let prefix_samples: usize = prefix.iter().map(|p| p.keys.len()).sum();
        let prefix_queries: u64 = prefix.iter().map(|p| p.queries).sum();
        let tvd = marginal_tvd(&env.oracle, prefix.iter().map(|p| &p.hists));
        r.metric("samples_per_s", samples as f64 / scaled_s.max(1e-9), "1/s");
        r.metric("session_ms_p50", median(&scaled), "ms");
        r.metric("session_ms_p90", percentile(&scaled, 0.9), "ms");
        r.metric(
            "queries_per_sample",
            prefix_queries as f64 / prefix_samples.max(1) as f64,
            "count",
        );
        r.metric("marginal_tvd", tvd, "1");
        // A session has no fleet clock of its own: this is its rate on the
        // virtual clock of the `local:` wire, one round trip per charged
        // query, the same figure on every wire.
        r.metric(
            "fleet_samples_per_vsec",
            prefix_samples as f64 / (prefix_queries.max(1) as f64 * LOCAL_RTT_MS / 1e3),
            "1/s",
        );
        r.metric("setup_s", setups.median_s(), "s");
        r.metric("peak_rss_mib", host::peak_rss_mib(), "MiB");
    } else {
        let spans = timed::take();
        crate::layers::write_spans(args, &spans);
        let bd = Breakdown::new(&spans, "session", &traced_bad);
        let traced_ok: Vec<(&SessionRun, Duration)> = slots
            .iter()
            .enumerate()
            .filter(|(i, _)| !traced_bad.contains(&(*i as u32 + 1)))
            .filter_map(|(_, s)| match &s.traced {
                Some((Ok(t), wall)) => Some((t, *wall)),
                _ => None,
            })
            .collect();
        let traced_walls: Vec<f64> = traced_ok
            .iter()
            .map(|(_, w)| w.as_secs_f64() * 1e3)
            .collect();
        let mut c = Counters {
            sessions: traced_ok.len() as u64,
            overhead_pct: 100.0 * (median(&traced_walls) / median(&walls).max(1e-9) - 1.0),
            ..Counters::default()
        };
        for (t, _) in &traced_ok {
            c.samples += t.stats.accepted;
            c.walks += t.stats.walks;
            c.candidates += t.stats.candidates;
            c.requests += t.requests;
            c.history_hits += t.history.total_hits();
            c.l2_loads += t.history.l2_loads;
            c.l2_hits += t.history.l2_hits;
            c.l2_misses += t.history.l2_misses;
        }
        c.l2_log_bytes = env.l2_warm.iter().map(|(_, b)| b.len() as u64).sum();
        if let (Some(server), Some(before)) = (&env.server, &stats_before) {
            let after = server.stats();
            c.server_requests = after.requests - before.requests;
            c.server_wakeups = after.reactor_wakeups - before.reactor_wakeups;
            c.server_bytes_out = after.bytes_out - before.bytes_out;
        }
        per_layer_metrics(&mut r, &bd, &c, false);
        r.notes.extend(bd.table());
        r.notes.push(format!(
            "layers cover {:.1}% of traced session wall time; dominant: {}",
            bd.coverage_pct(false),
            bd.dominant(false)
        ));
    }
    if let Some(server) = env.server {
        server.shutdown();
    }
    r
}
