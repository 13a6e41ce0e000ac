//! The fleet vocabulary: what a site is, how a fleet is configured, and
//! what a run reports.
//!
//! A [`SiteTask`] is one site to drive — the scraper stack over its wire,
//! plus an optional streaming sink and persistent history log.
//! [`FleetConfig`] sizes the run and derives every walker's seed.
//! [`SiteReport`] and [`FleetReport`] carry the outcome.
//! [`RunPlan`](crate::plan::RunPlan) is the one front door that executes
//! a fleet, on the cooperative engine (the private `coop` module).
//!
//! Accounting follows the per-connection clock model of [`crate::aio`]:
//! a site's virtual elapsed time is the maximum over its connections, and
//! the fleet's elapsed time is the maximum over sites — overlapping
//! requests overlap. Each site's walkers share one history cache
//! (inference is per-site — facts learned from one database must never
//! answer for another), and per-site query budgets are enforced by the
//! backing interface end to end.

use hdsampler_core::{
    HistoryStats, SampleSet, SampleSink, SamplerConfig, SamplerStats, StopReason,
};

use crate::adapter::WebFormInterface;
use crate::transport::{Clocked, Transport};

/// One site to drive: a name, the scraper stack pointed at it, and an
/// optional per-site [`SampleSink`] observing every sample the site's
/// walkers accept, live.
///
/// The wire is any [`Transport`] that reports elapsed time ([`Clocked`]):
/// a [`LatencyTransport`](crate::transport::LatencyTransport) bills a
/// virtual clock, an [`HttpTransport`](crate::httpc::HttpTransport) spends
/// real wall-clock time against a live server — the driver code is
/// identical.
pub struct SiteTask<T> {
    /// Display name (reports and tables).
    pub name: String,
    /// The scraper-side interface over the site's wire.
    pub iface: WebFormInterface<T>,
    /// Streaming observer of this site's accepted samples.
    pub(crate) sink: Option<Box<dyn SampleSink>>,
    /// Persistent history log keyed by this site's fingerprint; the
    /// driver attaches it as the L2 tier of the site's
    /// [`CachingExecutor`](hdsampler_core::CachingExecutor).
    pub(crate) l2: Option<std::sync::Arc<hdsampler_core::L2Log>>,
}

impl<T: Transport + Clocked> SiteTask<T> {
    /// Name a site task.
    pub fn new(name: impl Into<String>, iface: WebFormInterface<T>) -> Self {
        SiteTask {
            name: name.into(),
            iface,
            sink: None,
            l2: None,
        }
    }

    /// Attach a persistent history log; the site's executor will consult
    /// it behind L1 and write newly learned facts to it.
    pub fn with_l2(mut self, log: std::sync::Arc<hdsampler_core::L2Log>) -> Self {
        self.l2 = Some(log);
        self
    }

    /// The attached persistent history log, if any.
    pub fn l2(&self) -> Option<&std::sync::Arc<hdsampler_core::L2Log>> {
        self.l2.as_ref()
    }

    /// Attach a per-site streaming sink; it observes every sample this
    /// site accepts, in acceptance order, and can be inspected or taken
    /// back after the run.
    pub fn with_sink(mut self, sink: Box<dyn SampleSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The attached sink, if any (down-cast via
    /// [`SampleSink::as_any`] to read its state).
    pub fn sink(&self) -> Option<&dyn SampleSink> {
        self.sink.as_deref()
    }

    /// Detach and return the sink.
    pub fn take_sink(&mut self) -> Option<Box<dyn SampleSink>> {
        self.sink.take()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SiteTask<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteTask")
            .field("name", &self.name)
            .field("iface", &self.iface)
            .field("sink", &self.sink.as_ref().map(|_| "<sink>"))
            .finish()
    }
}

/// Fleet-wide driving parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Walk machines per site.
    pub walkers_per_site: usize,
    /// Samples to collect from each site.
    pub target_per_site: usize,
    /// Base RNG seed; every (site, walker) pair derives a distinct seed.
    pub seed: u64,
    /// Efficiency ↔ skew slider position for every walker.
    pub slider: f64,
    /// Pinned bindings applied to every site's walkers (the sites share a
    /// schema structure, so attribute ids resolve identically fleet-wide).
    pub scope: hdsampler_model::ConjunctiveQuery,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            walkers_per_site: 2,
            target_per_site: 100,
            seed: 2009,
            slider: 0.0,
            scope: hdsampler_model::ConjunctiveQuery::empty(),
        }
    }
}

impl FleetConfig {
    /// Per-(site, walker) sampler configuration with a distinct seed.
    ///
    /// Walker (s, w) walks the identical seeded sequence as a standalone
    /// [`HdsSampler`](hdsampler_core::HdsSampler) built with this config.
    /// Golden-ratio mixing keeps (site, walker) seeds distinct without
    /// any two sites' walkers ever colliding for realistic fleet sizes.
    pub fn walker_config(&self, site_ix: usize, walker: usize) -> SamplerConfig {
        let seed = self
            .seed
            .wrapping_add((site_ix as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(walker as u64);
        SamplerConfig::seeded(seed)
            .with_slider(self.slider)
            .with_scope(self.scope.clone())
    }
}

/// Per-site outcome of a fleet run.
#[derive(Debug)]
pub struct SiteReport {
    /// The site's name.
    pub name: String,
    /// Samples collected (≤ target when the budget ran out).
    pub samples: SampleSet,
    /// Logical requests the site's walkers made (cache hits included).
    pub requests: u64,
    /// Page fetches actually charged at the site.
    pub queries_issued: u64,
    /// Requests the site's shared history cache absorbed.
    pub history_hits: u64,
    /// The site's wall clock (virtual for simulated wires — max over its
    /// connections — real for TCP ones).
    pub elapsed_ms: u64,
    /// Transient failures retried against this site (throttles, 5xx,
    /// dropped connections). Retries are charged here, never as extra
    /// logical queries.
    pub retries: u64,
    /// Total backoff the site's walkers waited before retrying, in wire
    /// milliseconds (virtual on simulated wires).
    pub backoff_vms: u64,
    /// Walkers stolen *into* this site from sites that finished early
    /// (work-stealing enabled; 0 otherwise).
    pub steals: u64,
    /// Why the site's session ended.
    pub stopped: StopReason,
    /// The site's merged sampler counters (walks, acceptance, …).
    pub stats: SamplerStats,
    /// The site's history-cache statistics (hits by rule and tier,
    /// evictions).
    pub history: HistoryStats,
    /// Each walker's sample keys in production order — deterministic per
    /// (seed, site, walker), and identical to what a standalone
    /// [`HdsSampler`](hdsampler_core::HdsSampler) with the same
    /// [`FleetConfig::walker_config`] seed produces. Stolen walkers follow
    /// the site's own.
    pub per_walker_keys: Vec<Vec<u64>>,
    /// Wire connections the site's walkers shared (stolen walkers' fresh
    /// connections included).
    pub connections: usize,
}

/// Outcome of a whole fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-site outcomes, in task order.
    pub sites: Vec<SiteReport>,
    /// Fleet wall clock (virtual on simulated wires): max over sites.
    pub fleet_elapsed_ms: u64,
}

impl FleetReport {
    /// Samples collected across the fleet.
    pub fn total_samples(&self) -> usize {
        self.sites.iter().map(|s| s.samples.len()).sum()
    }

    /// Page fetches charged across the fleet.
    pub fn total_fetches(&self) -> u64 {
        self.sites.iter().map(|s| s.queries_issued).sum()
    }

    /// Transient-failure retries across the fleet.
    pub fn total_retries(&self) -> u64 {
        self.sites.iter().map(|s| s.retries).sum()
    }

    /// Walkers stolen across the fleet.
    pub fn total_steals(&self) -> u64 {
        self.sites.iter().map(|s| s.steals).sum()
    }

    /// Fleet throughput in samples per virtual second. A fleet that spent
    /// no wire time (everything answered from history, or nothing ran)
    /// reports `0.0` — a throughput figure, never `NaN` (which used to
    /// leak all the way into the CLI table).
    pub fn samples_per_vsec(&self) -> f64 {
        if self.fleet_elapsed_ms == 0 {
            0.0
        } else {
            self.total_samples() as f64 / (self.fleet_elapsed_ms as f64 / 1_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunPlan;
    use crate::transport::{LatencyTransport, LocalSite};
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_model::{Attribute, FormInterface, SchemaBuilder, Tuple};
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

    fn budgeted_task(
        name: &str,
        latency_ms: u64,
        budget: u64,
    ) -> SiteTask<LatencyTransport<LocalSite<HiddenDb>>> {
        // Four Boolean attributes with every combination present: the
        // query tree is far too large to cache within a small budget, so
        // exhaustion is guaranteed (a tiny database would be fully learned
        // by the history cache, after which samples are free forever).
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .attribute(Attribute::boolean("z"))
            .attribute(Attribute::boolean("w"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema))
            .result_limit(1)
            .query_budget(budget);
        for bits in 0..16u16 {
            let vals: Vec<u16> = (0..4).map(|i| (bits >> i) & 1).collect();
            b.push(&Tuple::new(&schema, vals, vec![]).unwrap()).unwrap();
        }
        let site = LocalSite::new(b.finish(), Arc::clone(&schema));
        let wire = LatencyTransport::new(site, latency_ms);
        SiteTask::new(name, WebFormInterface::new(wire, schema, 1, false))
    }

    #[test]
    fn fleet_overlaps_sites_on_virtual_time() {
        let plan = |walkers| RunPlan::target(25).walkers(walkers).seed(7);
        // The serial baseline: each site alone with one walker, one site
        // after another — fleet time is the sum of the solo runs.
        let serial_ms: u64 = (0..3)
            .map(|i| {
                plan(1)
                    .run(&mut [figure1_task(&format!("s{i}"), 100)])
                    .fleet
                    .fleet_elapsed_ms
            })
            .sum();

        let mut sites: Vec<_> = (0..3)
            .map(|i| figure1_task(&format!("c{i}"), 100))
            .collect();
        let fleet = plan(2).run(&mut sites).fleet;
        assert_eq!(fleet.total_samples(), 75);
        assert_eq!(
            fleet.fleet_elapsed_ms,
            fleet.sites.iter().map(|s| s.elapsed_ms).max().unwrap(),
            "fleet time is the max over sites"
        );
        assert!(
            fleet.fleet_elapsed_ms < serial_ms,
            "overlap must win: {} vs {serial_ms}",
            fleet.fleet_elapsed_ms,
        );
        for site in &fleet.sites {
            assert_eq!(site.stopped, StopReason::TargetReached);
            assert!(site.queries_issued > 0);
            assert!(
                site.requests >= site.queries_issued,
                "cache hits never exceed requests"
            );
        }
    }

    #[test]
    fn zero_elapsed_fleet_reports_zero_throughput_not_nan() {
        // Regression: a fleet that never touched the wire (e.g. every
        // request served from history) used to report NaN samples/s, and
        // the CLI printed it verbatim.
        let report = FleetReport {
            sites: vec![],
            fleet_elapsed_ms: 0,
        };
        assert_eq!(report.samples_per_vsec(), 0.0);
        let report = FleetReport {
            sites: vec![],
            fleet_elapsed_ms: 2_000,
        };
        assert_eq!(report.samples_per_vsec(), 0.0, "0 samples / 2 s = 0");
    }

    #[test]
    fn fleet_scope_pins_every_walker() {
        use hdsampler_model::{AttrId, ConjunctiveQuery};
        let mut sites: Vec<_> = (0..2).map(|i| figure1_task(&format!("s{i}"), 50)).collect();
        let report = RunPlan::target(20)
            .walkers(2)
            .seed(11)
            .scope(ConjunctiveQuery::from_pairs([(AttrId(1), 1)]).unwrap())
            .run(&mut sites);
        for site in &report.fleet.sites {
            assert_eq!(site.stopped, StopReason::TargetReached);
            for row in site.samples.rows() {
                assert_eq!(row.values[1], 1, "every sample honours the scope");
            }
        }
    }

    #[test]
    fn per_site_budgets_are_enforced() {
        // One starving site next to a healthy one: the budgeted site stops
        // early with partial results, the rest of the fleet is unaffected.
        let mut sites = vec![budgeted_task("starved", 50, 12), figure1_task("ok", 50)];
        let report = RunPlan::target(1_000)
            .walkers(2)
            .seed(3)
            .run(&mut sites)
            .fleet;
        let starved = &report.sites[0];
        assert_eq!(starved.stopped, StopReason::BudgetExhausted);
        assert!(starved.samples.len() < 1_000);
        // The site-side budget is a hard cap on *charged* queries; the
        // scraper-side fetch counter may additionally record the rejected
        // attempts that discovered the exhaustion (at most one per walker).
        assert!(
            sites[0].iface.transport().inner().backend().budget().used() <= 12,
            "budget is a hard cap at the site"
        );
        assert!(starved.queries_issued <= 12 + 2);
        // The unbudgeted site is unaffected by its neighbour's starvation.
        assert_eq!(report.sites[1].stopped, StopReason::TargetReached);
    }
}
