//! # HDSampler
//!
//! A from-scratch reproduction of **"HDSampler: Revealing Data Behind Web
//! Form Interfaces"** (SIGMOD 2009 demo): draw (near-)uniform random
//! samples from a structured database that is only reachable through a
//! conjunctive web form with a top-k result limit, then answer aggregate
//! queries and plot marginal distributions from the samples.
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`model`] | schemas, tuples, conjunctive queries, the `FormInterface` contract |
//! | [`hidden_db`] | the simulated hidden database engine (top-k, ranking, budgets, count noise) |
//! | [`workload`] | synthetic data: Google-Base-like vehicles, Boolean, Zipfian |
//! | [`core`] | the samplers: HIDDEN-DB-SAMPLER, BRUTE-FORCE, count-weighted; history cache; sessions |
//! | [`estimator`] | histograms, aggregates with CIs, skew metrics, size estimation |
//! | [`webform`] | URL/HTML round trip: form encoding, page rendering, scraping |
//!
//! ## Quick start
//!
//! ```
//! use hdsampler::prelude::*;
//!
//! // A simulated hidden car-listing site (compact schema, k = 250).
//! let db = hdsampler::simulated_site(5_000, 250, 42);
//!
//! // Draw 50 samples at C = 1 through the form interface (uniform over
//! // distinct tuples; see README "Limitations" for duplicates).
//! let mut sampler = hdsampler::uniform_sampler(&db, 7);
//! let samples: SampleSet =
//!     (0..50).map(|_| sampler.next_sample().expect("site is healthy")).collect();
//!
//! // Estimate the share of Japanese makes (the paper's §1 example) and
//! // validate against the simulated site's ground truth.
//! use hdsampler::workload::vehicles::{is_japanese_make, N_JAPANESE_MAKES};
//! let est = Estimator::new(&samples)
//!     .proportion(|row| is_japanese_make(row.values[0] as usize));
//! let truth: f64 =
//!     db.oracle().marginal(AttrId(0))[..N_JAPANESE_MAKES].iter().sum();
//! assert!((est.value - truth).abs() < 0.25, "estimate {} vs truth {truth}", est.value);
//! println!("Japanese share ≈ {:.1}% ± {:.1}%", est.value * 100.0, est.half_width * 100.0);
//! ```

pub use hdsampler_core as core;
pub use hdsampler_estimator as estimator;
pub use hdsampler_hidden_db as hidden_db;
pub use hdsampler_model as model;
pub use hdsampler_webform as webform;
pub use hdsampler_workload as workload;

use std::sync::Arc;

use hdsampler_core::{CachingExecutor, HdsSampler, SamplerConfig};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use hdsampler_core::{
        AcceptancePolicy, BruteForceSampler, CachingExecutor, CountWalkSampler, DirectExecutor,
        HdsSampler, NullSink, OrderStrategy, QueryExecutor, Sample, SampleEvent, SampleSet,
        SampleSetSink, SampleSink, Sampler, SamplerConfig, SamplerError, SamplingSession,
        SessionEvent, StopReason,
    };
    pub use hdsampler_estimator::{
        capture_recapture, fmt_stat, tv_distance, DataCube, Estimator, Histogram,
        MarginalComparison, MarginalEstimate, OnlineAvg, OnlineCount, OnlineFrequencies,
        OnlineMarginal, OnlineProportion, OnlineSize, OnlineSum,
    };
    pub use hdsampler_hidden_db::{CountMode, HiddenDb, QueryBudget, RankSpec};
    pub use hdsampler_model::{
        AttrId, Attribute, Classification, ConjunctiveQuery, FormInterface, MeasureId, Row, Schema,
        SchemaBuilder, TupleId,
    };
    pub use hdsampler_webform::{
        ChaosCounters, ChaosSpec, ChaosTransport, Driver, FleetConfig, LatencyTransport, LocalSite,
        RetryPolicy, RunPlan, RunReport, SiteTask, Transport, WebFormInterface,
    };
    pub use hdsampler_workload::{DataSpec, DbConfig, VehiclesSpec, WorkloadSpec};
}

/// Build the demo's simulated Google Base Vehicles site: the **full**
/// 12-attribute schema behind a `k = 1000` interface with noisy count
/// banners and freshness ranking — the configuration §3.1 describes.
pub fn simulated_google_base(n: usize, seed: u64) -> Arc<HiddenDb> {
    Arc::new(WorkloadSpec::vehicles(VehiclesSpec::full(n, seed), DbConfig::default()).build())
}

/// Build a compact simulated vehicle site with a configurable `k` —
/// the 6-attribute variant whose domain product is small enough for
/// brute-force validation (§3.4 / §4 backup plan).
pub fn simulated_site(n: usize, k: usize, seed: u64) -> Arc<HiddenDb> {
    Arc::new(
        WorkloadSpec::vehicles(
            VehiclesSpec::compact(n, seed),
            DbConfig::exact_counts().with_k(k),
        )
        .build(),
    )
}

/// A `C = 1` HIDDEN-DB-SAMPLER over a shared database, with the history
/// cache enabled (the full §3 configuration). It is uniform over distinct
/// tuples only: tuples that share a full value assignment are
/// under-sampled (README, "Limitations").
pub fn uniform_sampler(
    db: &Arc<HiddenDb>,
    seed: u64,
) -> HdsSampler<CachingExecutor<Arc<HiddenDb>>> {
    HdsSampler::new(
        CachingExecutor::new(Arc::clone(db)),
        SamplerConfig::seeded(seed),
    )
    .expect("default configuration is valid for any schema")
}

/// A slider-configured HIDDEN-DB-SAMPLER (`0.0` = lowest skew, `1.0` =
/// highest efficiency) — the demo's §3.1 performance/accuracy control.
pub fn slider_sampler(
    db: &Arc<HiddenDb>,
    slider: f64,
    seed: u64,
) -> HdsSampler<CachingExecutor<Arc<HiddenDb>>> {
    HdsSampler::new(
        CachingExecutor::new(Arc::clone(db)),
        SamplerConfig::seeded(seed).with_slider(slider),
    )
    .expect("default configuration is valid for any schema")
}

/// Wrap a shared database in the full web stack — URL encoding, HTML
/// rendering, scraping — and return the scraper-side interface. Samplers
/// running on it exercise the identical pipeline a live scraper would.
pub fn webform_stack(
    db: &Arc<HiddenDb>,
) -> webform::WebFormInterface<webform::LocalSite<Arc<HiddenDb>>> {
    use hdsampler_model::FormInterface as _;
    let schema = Arc::new(db.schema().clone());
    let k = db.result_limit();
    let supports = db.supports_count();
    let site = webform::LocalSite::new(Arc::clone(db), Arc::clone(&schema));
    webform::WebFormInterface::new(site, schema, k, supports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn facade_builders_work_together() {
        let db = simulated_site(1_000, 100, 3);
        let mut s = uniform_sampler(&db, 5);
        let sample = s.next_sample().unwrap();
        assert!(db.oracle().tuple_by_key(sample.row.key).is_some());

        let mut fast = slider_sampler(&db, 1.0, 5);
        fast.next_sample().unwrap();
        assert!(fast.c_factor() > s.c_factor());
    }

    #[test]
    fn webform_stack_serves_samplers() {
        let db = simulated_site(500, 50, 9);
        let iface = webform_stack(&db);
        let mut s = HdsSampler::new(DirectExecutor::new(&iface), SamplerConfig::seeded(1)).unwrap();
        let sample = s.next_sample().unwrap();
        assert!(db.oracle().tuple_by_key(sample.row.key).is_some());
    }

    #[test]
    fn google_base_configuration() {
        let db = simulated_google_base(2_000, 1);
        assert_eq!(db.result_limit(), 1000);
        assert!(db.supports_count(), "noisy banner present");
        assert_eq!(db.schema().arity(), 12);
    }
}
