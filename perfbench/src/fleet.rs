//! The `chaos_fleet` workload: cooperative fleet jobs back to back.
//!
//! Each job is one `RunPlan` under `Driver::Coop { conns: Some(4) }`: 16
//! walkers per site at slider 0.4 over four
//! `vehicles-compact` sites (n = 5000, k = 100, data seeds 90–93) on 40 ms
//! virtual wires. Sites 0 and 2 sit behind seeded `ChaosTransport`
//! adversaries (throttle 0.5 with Retry-After 600 ms, 5% 503s, 3% dropped
//! connections) whose fault seeds derive from the job's seed. Everything
//! runs on one thread over virtual clocks, so every count repeats exactly
//! and only wall time carries noise.
//!
//! Jobs run without work-stealing: with it, the coop driver reaches
//! `unreachable!` in `force_earliest` (`crates/webform/src/coop.rs`) on a
//! few seeds in a hundred, when a stolen walker finishes the last running
//! site from history. A job that panics is still caught, counted as
//! failed, and its seed recorded.

use std::any::Any;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use hdsampler_core::{merged, SampleEvent, SampleSink, StopReason};
use hdsampler_estimator::Histogram;
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::{AttrId, FormInterface, Schema};
use hdsampler_webform::{
    AsyncTransport, ChaosSpec, ChaosTransport, Clocked, Driver, LocalSite, RetryPolicy, RunPlan,
    SiteTask, Transport, WebFormInterface,
};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

use crate::layers::{per_layer_metrics, write_spans, Breakdown, Counters};
use crate::timed::{self, TimedForm, TimedSink, TimedTransport};
use crate::{
    host, marginal_tvd, median, percentile, run_slots, timing_note, Args, RunResult, SetupTimer,
    Slot,
};

const SITES: usize = 4;
const WALKERS: usize = 16;
const CONNS: usize = 4;
const SLIDER: f64 = 0.4;
const N: usize = 5_000;
const K: usize = 100;
const LATENCY_MS: u64 = 40;
const RETRY_AFTER_MS: u64 = 600;
/// Samples each site must collect per job.
const TARGET: usize = 30;
/// Jobs every untraced run completes, whatever `--seconds` says; the
/// seeded counts are taken over exactly these.
const DETERMINISTIC_JOBS: usize = 80;
/// Traced twins every traced run completes.
const TRACED_JOBS: usize = 10;

/// Sites 0 and 2 are throttled; 1 and 3 answer cleanly.
fn throttled(site: usize) -> bool {
    site.is_multiple_of(2)
}

fn build_db(site: usize) -> HiddenDb {
    WorkloadSpec::vehicles(
        VehiclesSpec::compact(N, 90 + site as u64),
        DbConfig::no_counts().with_k(K),
    )
    .build()
}

fn chaos_spec(site: usize, job_seed: u64) -> ChaosSpec {
    if throttled(site) {
        ChaosSpec {
            seed: job_seed
                .wrapping_mul(SITES as u64)
                .wrapping_add(site as u64),
            latency_ms: LATENCY_MS,
            throttle: 0.5,
            retry_after_ms: RETRY_AFTER_MS,
            fail: 0.05,
            drop: 0.03,
            ..ChaosSpec::default()
        }
    } else {
        ChaosSpec {
            latency_ms: LATENCY_MS,
            ..ChaosSpec::default()
        }
    }
}

/// The retry policy of the work-stealing experiment (`exp_chaos_steal`).
fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 20,
        base_backoff_ms: 25,
        max_backoff_ms: RETRY_AFTER_MS,
    }
}

/// One histogram per form attribute, fed as one per-site sink.
struct Marginals(Vec<Histogram>);

impl Marginals {
    fn new(schema: &Schema) -> Self {
        Marginals(
            (0..schema.arity())
                .map(|a| Histogram::new(schema, AttrId(a as u16)))
                .collect(),
        )
    }

    fn counts(&self) -> Vec<Vec<f64>> {
        self.0.iter().map(|h| h.counts().to_vec()).collect()
    }
}

impl SampleSink for Marginals {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        for h in &mut self.0 {
            h.observe(event);
        }
    }
    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(Marginals(
            self.0
                .iter()
                .map(|h| *merged::<Histogram>(h.fork()))
                .collect(),
        ))
    }
    fn merge(&mut self, other: Box<dyn SampleSink>) {
        let other = merged::<Marginals>(other);
        for (h, o) in self.0.iter_mut().zip(other.0) {
            h.merge(Box::new(o));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// What set-up leaves for the jobs: the four datasets and their true
/// marginals.
struct Env {
    dbs: Vec<(Arc<HiddenDb>, Arc<Schema>)>,
    oracles: Vec<Vec<Vec<f64>>>,
}

fn setup() -> Env {
    let dbs: Vec<(Arc<HiddenDb>, Arc<Schema>)> = (0..SITES)
        .map(|i| {
            let db = build_db(i);
            let schema = Arc::new(db.schema().clone());
            (Arc::new(db), schema)
        })
        .collect();
    let oracles = dbs
        .iter()
        .map(|(db, schema)| {
            (0..schema.arity())
                .map(|a| db.oracle().marginal(AttrId(a as u16)))
                .collect()
        })
        .collect();
    Env { dbs, oracles }
}

/// What one job produced.
#[derive(Debug, Clone)]
struct JobRun {
    /// Per site: sample keys, in acceptance order.
    keys: Vec<Vec<u64>>,
    /// Per site, per attribute: histogram weights.
    hists: Vec<Vec<Vec<f64>>>,
    samples: u64,
    queries: u64,
    requests: u64,
    history_hits: u64,
    walks: u64,
    candidates: u64,
    retries: u64,
    /// Requests the wires sent: first attempts and retries.
    sent: u64,
    backoff_vms: u64,
    fleet_vms: u64,
}

impl JobRun {
    fn digest(&self) -> (Vec<Vec<u64>>, u64, u64, u64, u64) {
        (
            self.keys.clone(),
            self.queries,
            self.retries,
            self.sent,
            self.fleet_vms,
        )
    }
}

/// Build the fleet for one job; `wrap_db` and `wrap_site` put decorators
/// around the engine and the site (or nothing). The wire is always behind a
/// [`TimedTransport`], which times it in traced jobs and counts the requests
/// it sends in every job.
fn fleet<B, S>(
    env: &Env,
    job_seed: u64,
    traced: bool,
    wrap_db: impl Fn(Arc<HiddenDb>) -> B,
    wrap_site: impl Fn(LocalSite<B>) -> S,
) -> Vec<SiteTask<TimedTransport<ChaosTransport<S>>>>
where
    B: FormInterface,
    S: Transport,
{
    env.dbs
        .iter()
        .enumerate()
        .map(|(i, (db, schema))| {
            let site = wrap_site(LocalSite::new(wrap_db(Arc::clone(db)), Arc::clone(schema)));
            let wire =
                TimedTransport::new("wire", ChaosTransport::new(site, chaos_spec(i, job_seed)));
            let iface = WebFormInterface::new(wire, Arc::clone(schema), K, false)
                .with_retry(retry_policy());
            let sink: Box<dyn SampleSink> = if traced {
                Box::new(TimedSink::new(
                    "estimator",
                    Box::new(Marginals::new(schema)),
                ))
            } else {
                Box::new(Marginals::new(schema))
            };
            SiteTask::new(format!("site-{i}"), iface).with_sink(sink)
        })
        .collect()
}

/// No retry is charged as a query: every request the wire sent is either a
/// charged query's first attempt or a counted retry.
fn charging_gate(site: &str, charged: u64, retries: u64, sent: u64) -> Result<(), String> {
    if charged + retries == sent {
        Ok(())
    } else {
        Err(format!(
            "{site}: the wire sent {sent} requests, but {charged} queries were charged and \
             {retries} retries counted"
        ))
    }
}

fn marginals_of(sink: &dyn SampleSink) -> Option<&Marginals> {
    match sink.as_any().downcast_ref::<TimedSink>() {
        Some(t) => t.inner().as_any().downcast_ref::<Marginals>(),
        None => sink.as_any().downcast_ref::<Marginals>(),
    }
}

/// Drive one fleet job and apply its gates: every site reached its target,
/// every sink saw every sample, and no retry was charged as a query.
fn drive<W>(
    make: impl FnOnce() -> Vec<SiteTask<TimedTransport<W>>>,
    job_seed: u64,
) -> Result<JobRun, String>
where
    W: Transport + AsyncTransport + Clocked + Send,
{
    let mut tasks = timed::timed("connect", make);
    let report = RunPlan::target(TARGET)
        .walkers(WALKERS)
        .seed(job_seed)
        .slider(SLIDER)
        .driver(Driver::Coop { conns: Some(CONNS) })
        .run(&mut tasks);
    let fleet = &report.fleet;
    if fleet.total_samples() != SITES * TARGET {
        return Err(format!(
            "collected {} samples, want {}",
            fleet.total_samples(),
            SITES * TARGET
        ));
    }
    let mut hists = Vec::with_capacity(SITES);
    for (site, task) in fleet.sites.iter().zip(&tasks) {
        if site.stopped != StopReason::TargetReached || site.samples.len() != TARGET {
            return Err(format!("{} stopped {:?}", site.name, site.stopped));
        }
        charging_gate(
            &site.name,
            site.queries_issued,
            site.retries,
            task.iface.transport().attempts(),
        )?;
        let m = task
            .sink()
            .and_then(marginals_of)
            .ok_or("the site lost its marginal sink")?;
        let counts = m.counts();
        let weight = site.samples.total_weight();
        if counts
            .iter()
            .any(|h| (h.iter().sum::<f64>() - weight).abs() > 1e-9 * weight.max(1.0))
        {
            return Err(format!("{}: a histogram missed samples", site.name));
        }
        hists.push(counts);
    }
    Ok(JobRun {
        keys: fleet.sites.iter().map(|s| s.samples.keys()).collect(),
        hists,
        samples: fleet.total_samples() as u64,
        queries: fleet.total_fetches(),
        requests: fleet.sites.iter().map(|s| s.requests).sum(),
        history_hits: fleet.sites.iter().map(|s| s.history_hits).sum(),
        walks: fleet.sites.iter().map(|s| s.stats.walks).sum(),
        candidates: fleet.sites.iter().map(|s| s.stats.candidates).sum(),
        retries: fleet.total_retries(),
        sent: tasks.iter().map(|t| t.iface.transport().attempts()).sum(),
        backoff_vms: fleet.sites.iter().map(|s| s.backoff_vms).sum(),
        fleet_vms: fleet.fleet_elapsed_ms,
    })
}

fn plain_job(env: &Env, job_seed: u64) -> Result<JobRun, String> {
    drive(|| fleet(env, job_seed, false, |db| db, |s| s), job_seed)
}

fn traced_job(env: &Env, job_seed: u64, id: u32) -> Result<JobRun, String> {
    timed::session(id, "job", || {
        drive(
            || {
                fleet(
                    env,
                    job_seed,
                    true,
                    |db| TimedForm::new("engine", db),
                    |s| TimedTransport::new("site", s),
                )
            },
            job_seed,
        )
    })
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult {
        correct: true,
        ..RunResult::default()
    };
    timed::set_enabled(false);
    // A caught panic is reported in the run's notes; keep stderr quiet.
    std::panic::set_hook(Box::new(|_| {}));

    let setups = SetupTimer::default();
    let env = setups.time(setup);

    let at_least = if args.trace {
        TRACED_JOBS
    } else {
        DETERMINISTIC_JOBS
    };
    let slots = run_slots(
        args,
        at_least,
        |run| {
            if setups.due(run) {
                drop(setups.time(setup));
            }
        },
        |seed| plain_job(&env, seed),
        |seed, id| traced_job(&env, seed, id),
    );

    let mut failed_seeds = Vec::new();
    let mut traced_bad: HashSet<u32> = HashSet::new();
    for (i, s) in slots.iter().enumerate() {
        r.attempted += 1;
        if let Err(e) = &s.plain {
            r.failed += 1;
            failed_seeds.push(s.seed);
            if !e.starts_with("panicked") {
                r.correct = false;
            }
            r.notes
                .push(format!("job {i} (seed {}) failed: {e}", s.seed));
        }
        if let Some((t, _)) = &s.traced {
            r.attempted += 1;
            let verdict = match (t, &s.plain) {
                (Err(e), _) => Err(e.clone()),
                (Ok(t), Ok(p)) if t.digest() != p.digest() => {
                    Err("traced job differs from its untraced twin".to_string())
                }
                _ => Ok(()),
            };
            if let Err(e) = verdict {
                r.failed += 1;
                if !e.starts_with("panicked") {
                    r.correct = false;
                }
                traced_bad.insert(i as u32 + 1);
                r.notes
                    .push(format!("traced job {i} (seed {}) failed: {e}", s.seed));
            }
        }
    }
    r.notes.push(format!(
        "chaos_fleet: failed job seeds {failed_seeds:?} of {} jobs",
        slots.len()
    ));

    let ok: Vec<(&Slot<JobRun>, &JobRun)> = slots
        .iter()
        .filter_map(|s| s.plain.as_ref().ok().map(|p| (s, p)))
        .collect();
    let walls: Vec<f64> = ok.iter().map(|(s, _)| s.wall.as_secs_f64() * 1e3).collect();
    let scaled: Vec<f64> = ok.iter().map(|(s, _)| s.scaled_ms()).collect();
    r.notes.push(format!(
        "chaos_fleet: {} jobs, p50 {:.2} ms, p90 {:.2} ms over {} completed jobs",
        slots.len(),
        median(&walls),
        percentile(&walls, 0.9),
        walls.len()
    ));
    let probes: Vec<f64> = slots.iter().map(|s| s.probe.as_secs_f64() * 1e3).collect();
    r.notes.push(timing_note(&walls, &scaled, &probes, &setups));

    if !args.trace {
        let samples: u64 = ok.iter().map(|(_, p)| p.samples).sum();
        let scaled_s: f64 = scaled.iter().sum::<f64>() / 1e3;
        let prefix: Vec<&JobRun> = slots
            .iter()
            .take(DETERMINISTIC_JOBS)
            .filter_map(|s| s.plain.as_ref().ok())
            .collect();
        let prefix_samples: u64 = prefix.iter().map(|p| p.samples).sum();
        let prefix_queries: u64 = prefix.iter().map(|p| p.queries).sum();
        let prefix_vms: u64 = prefix.iter().map(|p| p.fleet_vms).sum();
        let tvd = (0..SITES)
            .map(|site| marginal_tvd(&env.oracles[site], prefix.iter().map(|p| &p.hists[site])))
            .sum::<f64>()
            / SITES as f64;
        r.metric("samples_per_s", samples as f64 / scaled_s.max(1e-9), "1/s");
        r.metric("session_ms_p50", median(&scaled), "ms");
        r.metric("session_ms_p90", percentile(&scaled, 0.9), "ms");
        r.metric(
            "queries_per_sample",
            prefix_queries as f64 / prefix_samples.max(1) as f64,
            "count",
        );
        r.metric("marginal_tvd", tvd, "1");
        r.metric(
            "fleet_samples_per_vsec",
            prefix_samples as f64 / (prefix_vms.max(1) as f64 / 1e3),
            "1/s",
        );
        r.metric("setup_s", setups.median_s(), "s");
        r.metric("peak_rss_mib", host::peak_rss_mib(), "MiB");
    } else {
        let spans = timed::take();
        write_spans(args, &spans);
        let bd = Breakdown::new(&spans, "job", &traced_bad);
        let traced_ok: Vec<(&JobRun, Duration)> = slots
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
            c.samples += t.samples;
            c.walks += t.walks;
            c.candidates += t.candidates;
            c.requests += t.requests;
            c.history_hits += t.history_hits;
            c.retries += t.retries;
            c.backoff_vms += t.backoff_vms;
        }
        per_layer_metrics(&mut r, &bd, &c, true);
        r.notes.extend(bd.table());
        r.notes.push(format!(
            "layers cover {:.1}% of traced job wall time (the job's own self time is the coop \
             driver: walk, history and scrape); dominant: {}",
            bd.coverage_pct(true),
            bd.dominant(true)
        ));
    }
    let _ = std::panic::take_hook();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_gate_balances_on_a_job_and_catches_a_charged_retry() {
        let env = setup();
        let job = (0..8)
            .find_map(|seed| crate::guarded(|| plain_job(&env, seed)).ok())
            .expect("a job completes");
        assert!(job.retries > 0, "the throttled sites made the fleet retry");
        assert_eq!(job.sent, job.queries + job.retries);
        assert!(charging_gate("fleet", job.queries, job.retries, job.sent).is_ok());
        // A retry resubmitted as a fresh query is charged and still counted
        // as a retry: the books hold one request more than the wire sent.
        assert!(charging_gate("fleet", job.queries + 1, job.retries, job.sent).is_err());
    }
}
