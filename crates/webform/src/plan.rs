//! [`RunPlan`]: the one front door for every sampling run.
//!
//! One builder describes *what* to run (target, walkers, seed, slider,
//! scope), *how walkers share a site's connections* ([`Driver`]), and
//! *who watches* (attached [`SampleSink`]s observing every accepted
//! sample live, and [`TraceSink`]s observing the span stream).
//! [`RunPlan::run`] is the only way to drive the cooperative engine (the
//! private `coop` module): a one-site, one-walker plan (what `sample
//! <locator>` runs) takes the same loop as a many-site fleet, walks the
//! same seeded sequence as a standalone
//! [`HdsSampler`](hdsampler_core::HdsSampler), and returns the same
//! [`RunReport`]. The plan holds one [`FleetConfig`]; the builder only
//! fills it in.
//!
//! Typical use:
//!
//! ```text
//! let report = RunPlan::target(200)
//!     .walkers(8)
//!     .driver(Driver::Coop { conns: Some(4) })
//!     .seed(2009)
//!     .attach(&mut histogram)     // any SampleSink, updated live
//!     .run(&mut fleet);
//! ```

use hdsampler_core::{SampleSink, TraceSink};
use hdsampler_model::ConjunctiveQuery;

use crate::aio::AsyncTransport;
use crate::connect::{BoxTransport, ConnectOptions, ConnectorRegistry};
use crate::coop;
use crate::driver::{FleetConfig, FleetReport, SiteReport, SiteTask};
use crate::locator::SiteLocator;
use crate::transport::{Clocked, Transport};

/// How a [`RunPlan`]'s walkers share each site's wire connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One connection per walker: exactly `Coop { conns: None }`. The
    /// name predates the single engine and is kept for existing callers.
    Threaded,
    /// `conns` pipelined connections per site shared round-robin by its
    /// walkers (`None` = one connection per walker). Fewer connections
    /// than walkers pipelines several requests per connection — HTTP/1.1
    /// FIFO on real wires, serialized virtual service on simulated ones.
    Coop {
        /// Wire connections per site the walkers share.
        conns: Option<usize>,
    },
}

impl Default for Driver {
    /// One connection per walker.
    fn default() -> Self {
        Driver::Coop { conns: None }
    }
}

impl Driver {
    /// Connections per site the walkers share (`None` = one each).
    fn conns(self) -> Option<usize> {
        match self {
            Driver::Threaded => None,
            Driver::Coop { conns } => conns,
        }
    }
}

/// Outcome of a [`RunPlan`].
#[derive(Debug)]
pub struct RunReport {
    /// Per-site outcomes (walker sequences and connection counts
    /// included) and fleet clocks.
    pub fleet: FleetReport,
}

impl RunReport {
    /// The first (often only) site's report.
    pub fn site(&self) -> &SiteReport {
        &self.fleet.sites[0]
    }

    /// Samples collected across the fleet.
    pub fn total_samples(&self) -> usize {
        self.fleet.total_samples()
    }
}

/// A single builder describing one sampling run.
///
/// The lifetime `'a` covers attached sinks: the caller keeps ownership
/// and reads their final (or, for a live display, mid-run) state after
/// [`RunPlan::run`] returns.
pub struct RunPlan<'a> {
    cfg: FleetConfig,
    driver: Driver,
    steal: bool,
    sinks: Vec<&'a mut dyn SampleSink>,
    trace_sinks: Vec<&'a mut dyn TraceSink>,
}

impl<'a> RunPlan<'a> {
    /// Plan a run collecting `target` samples per site.
    pub fn target(target: usize) -> Self {
        RunPlan {
            cfg: FleetConfig {
                walkers_per_site: 1,
                target_per_site: target,
                ..FleetConfig::default()
            },
            driver: Driver::default(),
            steal: false,
            sinks: Vec::new(),
            trace_sinks: Vec::new(),
        }
    }

    /// Walk machines per site (default 1).
    pub fn walkers(mut self, walkers: usize) -> Self {
        self.cfg.walkers_per_site = walkers.max(1);
        self
    }

    /// Base RNG seed ([`FleetConfig::walker_config`] derives per-walker
    /// seeds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Efficiency ↔ skew slider position for every walker.
    pub fn slider(mut self, slider: f64) -> Self {
        self.cfg.slider = slider;
        self
    }

    /// Pinned bindings applied fleet-wide.
    pub fn scope(mut self, scope: ConjunctiveQuery) -> Self {
        self.cfg.scope = scope;
        self
    }

    /// How walkers share each site's connections (default: one
    /// connection per walker).
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Enable cross-site work-stealing: when a site finishes (target
    /// reached, budget exhausted, or failed), its walker slots are donated
    /// to the hungriest still-running site. Each stolen slot spawns a
    /// fresh seeded walker on a fresh connection floored at `max(receiver
    /// knowledge, donor elapsed)`, and bumps the receiving site's
    /// `steals` counter.
    pub fn steal(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Attach a streaming sink observing every accepted sample across the
    /// whole fleet, live. Repeatable. The caller keeps ownership and
    /// inspects the sink after the run.
    pub fn attach(mut self, sink: &'a mut dyn SampleSink) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Attach a [`TraceSink`] observing the run's trace events.
    /// Repeatable; attaching none keeps tracing off (no events are even
    /// constructed). The stream carries every span the driver emits:
    /// cache, wire, retry, stall, steal and sample.
    pub fn attach_trace(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.trace_sinks.push(sink);
        self
    }

    /// Execute the plan over `sites` — simulated wires or live TCP, any
    /// transport implementing both the blocking and the explicit-
    /// connection face. Per-site [`SiteTask`] sinks observe their site's
    /// samples in acceptance order; the plan's attached run-level sinks
    /// observe every site's, in the fleet's completion order.
    pub fn run<T>(mut self, sites: &mut [SiteTask<T>]) -> RunReport
    where
        T: Transport + AsyncTransport + Clocked,
    {
        let fleet = coop::run(
            &self.cfg,
            self.driver.conns(),
            self.steal,
            sites,
            &mut self.sinks,
            &mut self.trace_sinks,
        );
        RunReport { fleet }
    }

    /// Connect every locator through the standard
    /// [`ConnectorRegistry`] — building in-process sites, dialing live
    /// servers, loading tapes, discovering each site's schema off its own
    /// `/` — and execute the plan over the resulting *heterogeneous*
    /// fleet. Returns the report and the tasks, so wire statistics and
    /// per-site sinks remain inspectable.
    ///
    /// The fleet shares one [`FleetConfig`]; with per-site schemas, the
    /// plan's `scope` must be empty or resolvable against every site.
    ///
    /// # Errors
    /// The first locator that fails to connect (unknown dataset,
    /// unreachable host, missing tape, unscrapable landing page).
    pub fn run_locators(
        self,
        locators: &[SiteLocator],
    ) -> Result<(RunReport, Vec<SiteTask<BoxTransport>>), String> {
        self.run_locators_with(locators, &ConnectOptions::default())
    }

    /// [`run_locators`](RunPlan::run_locators) with explicit
    /// [`ConnectOptions`] (e.g. recording the session to a tape, or a
    /// shared L2 root every leg persists its facts under).
    pub fn run_locators_with(
        self,
        locators: &[SiteLocator],
        opts: &ConnectOptions,
    ) -> Result<(RunReport, Vec<SiteTask<BoxTransport>>), String> {
        if locators.is_empty() {
            return Err("run_locators: empty locator list".into());
        }
        let registry = ConnectorRegistry::standard();
        let mut tasks = locators
            .iter()
            .map(|loc| registry.connect(loc, opts))
            .collect::<Result<Vec<_>, String>>()?;
        let report = self.run(&mut tasks);
        Ok((report, tasks))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::adapter::WebFormInterface;
    use crate::chaos::ChaosTransport;
    use crate::transport::{LatencyTransport, LocalSite};
    use hdsampler_core::{SampleSetSink, StopReason};
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_model::FormInterface as _;
    use hdsampler_workload::figure1_db;

    fn figure1_task(name: &str, latency_ms: u64) -> SiteTask<ChaosTransport<LocalSite<HiddenDb>>> {
        let db = figure1_db(1);
        let schema = Arc::new(db.schema().clone());
        let site = LocalSite::new(db, Arc::clone(&schema));
        let wire = LatencyTransport::new(site, latency_ms);
        SiteTask::new(name, WebFormInterface::new(wire, schema, 1, false))
    }

    #[test]
    fn every_connection_layout_reaches_the_target() {
        let run = |driver: Option<Driver>| {
            let mut fleet = vec![figure1_task("a", 50), figure1_task("b", 50)];
            let mut collected = SampleSetSink::new();
            let mut plan = RunPlan::target(20).walkers(3).seed(5);
            if let Some(d) = driver {
                plan = plan.driver(d);
            }
            let report = plan.attach(&mut collected).run(&mut fleet);
            assert_eq!(report.total_samples(), 40, "{driver:?}");
            assert_eq!(
                collected.set().len(),
                40,
                "run-level sink sees the whole fleet under {driver:?}"
            );
            for site in &report.fleet.sites {
                assert_eq!(site.stopped, StopReason::TargetReached);
                assert!(site.stats.accepted >= 20);
                assert_eq!(site.per_walker_keys.len(), 3, "keys for every walker");
            }
            report
        };
        let keys = |r: &RunReport| {
            r.fleet
                .sites
                .iter()
                .map(|s| s.per_walker_keys.clone())
                .collect::<Vec<_>>()
        };
        // `Threaded` is a spelling of the default, one connection per
        // walker: the same run, walker for walker.
        let default = run(None);
        assert_eq!(default.site().connections, 3);
        let threaded = run(Some(Driver::Threaded));
        assert_eq!(keys(&threaded), keys(&default));
        assert_eq!(
            threaded.fleet.fleet_elapsed_ms,
            default.fleet.fleet_elapsed_ms
        );
        let pipelined = run(Some(Driver::Coop { conns: Some(2) }));
        assert_eq!(pipelined.site().connections, 2);
    }

    #[test]
    fn per_site_and_run_level_sinks_compose() {
        let mut fleet = vec![
            figure1_task("a", 30).with_sink(Box::new(SampleSetSink::new())),
            figure1_task("b", 30).with_sink(Box::new(SampleSetSink::new())),
        ];
        let mut all = SampleSetSink::new();
        let report = RunPlan::target(15)
            .walkers(2)
            .driver(Driver::Coop { conns: None })
            .attach(&mut all)
            .run(&mut fleet);
        assert_eq!(all.set().len(), 30);
        for (task, site) in fleet.iter_mut().zip(&report.fleet.sites) {
            let sink = task.take_sink().expect("sink attached");
            let sink = sink
                .as_any()
                .downcast_ref::<SampleSetSink>()
                .expect("concrete type");
            assert_eq!(
                sink.set().keys(),
                site.samples.keys(),
                "per-site sink saw exactly the site's samples, in order"
            );
        }
    }

    #[test]
    fn fleet_config_resolves_the_builder() {
        let plan = RunPlan::target(7).walkers(3).seed(42).slider(0.5);
        let cfg = &plan.cfg;
        assert_eq!(cfg.target_per_site, 7);
        assert_eq!(cfg.walkers_per_site, 3);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.slider, 0.5);
    }

    #[test]
    fn tracing_does_not_perturb_the_sample_sequence() {
        // Acceptance: disabling tracing changes no sample sequence. Run
        // the cooperative driver twice from one seed, traced and
        // untraced, and require identical per-site sample key sequences
        // and identical fleet clocks.
        use hdsampler_core::TraceLog;
        let run = |trace: Option<&mut TraceLog>| {
            let mut fleet = vec![figure1_task("a", 40), figure1_task("b", 60)];
            let plan = RunPlan::target(25)
                .walkers(3)
                .seed(77)
                .driver(Driver::Coop { conns: Some(2) });
            let report = match trace {
                Some(log) => plan.attach_trace(log).run(&mut fleet),
                None => plan.run(&mut fleet),
            };
            (
                report
                    .fleet
                    .sites
                    .iter()
                    .map(|s| s.samples.keys())
                    .collect::<Vec<_>>(),
                report.fleet.fleet_elapsed_ms,
            )
        };
        let mut log = TraceLog::new();
        let traced = run(Some(&mut log));
        let untraced = run(None);
        assert_eq!(traced, untraced, "tracing must be a pure observer");
        assert!(
            log.events().iter().any(|e| e.kind == "wire"),
            "the traced run journaled wire events"
        );
        assert!(log.events().iter().any(|e| e.kind == "sample"));
    }
}
