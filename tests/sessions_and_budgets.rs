//! Operational behaviour: metered sites, kill switches, several walkers
//! on one site, and scoped sampling — the §3.4 incremental workflow.

use hdsampler::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn metered_db(budget: u64) -> Arc<HiddenDb> {
    Arc::new(
        WorkloadSpec::vehicles(
            VehiclesSpec::compact(4_000, 7),
            DbConfig::no_counts().with_k(150).with_budget(budget),
        )
        .build(),
    )
}

#[test]
fn budget_exhaustion_mid_session_keeps_partial_samples() {
    let db = metered_db(400);
    let mut sampler = HdsSampler::new(
        DirectExecutor::new(Arc::clone(&db)),
        SamplerConfig::seeded(1),
    )
    .unwrap();
    let session = SamplingSession::new(100_000);
    let outcome = session.run(&mut sampler, |_| {});
    assert_eq!(outcome.reason, StopReason::BudgetExhausted);
    assert!(!outcome.samples.is_empty(), "partial results usable");
    assert_eq!(db.queries_issued(), 400, "charged exactly the budget");
    // The partial sample is still analyzable.
    let est = Estimator::new(&outcome.samples).proportion(|r| r.values[0] == 0);
    assert!(est.value.is_finite());
}

#[test]
fn cache_stretches_a_fixed_budget() {
    // Same budget, cache on: strictly more samples before exhaustion.
    let db_plain = metered_db(400);
    let mut plain = HdsSampler::new(
        DirectExecutor::new(Arc::clone(&db_plain)),
        SamplerConfig::seeded(1),
    )
    .unwrap();
    let n_plain = SamplingSession::new(100_000)
        .run(&mut plain, |_| {})
        .samples
        .len();

    let db_cached = metered_db(400);
    let mut cached = HdsSampler::new(
        CachingExecutor::new(Arc::clone(&db_cached)),
        SamplerConfig::seeded(1),
    )
    .unwrap();
    let n_cached = SamplingSession::new(100_000)
        .run(&mut cached, |_| {})
        .samples
        .len();

    assert!(
        n_cached > 2 * n_plain,
        "history cache must stretch the budget: {n_cached} vs {n_plain}"
    );
}

#[test]
fn kill_switch_stops_a_running_session_from_another_thread() {
    let db = Arc::new(
        WorkloadSpec::vehicles(
            VehiclesSpec::compact(4_000, 9),
            DbConfig::no_counts().with_k(150),
        )
        .build(),
    );
    let mut sampler = HdsSampler::new(
        CachingExecutor::new(Arc::clone(&db)),
        SamplerConfig::seeded(2),
    )
    .unwrap();
    let session = SamplingSession::new(usize::MAX);
    let kill = session.kill_switch();

    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        kill.store(true, Ordering::Relaxed);
    });
    let outcome = session.run(&mut sampler, |_| {});
    killer.join().unwrap();
    assert_eq!(outcome.reason, StopReason::Killed);
    assert!(!outcome.samples.is_empty(), "made progress before the kill");
}

#[test]
fn parallel_session_shares_one_cache_and_budget() {
    // Four walkers on one site: one history cache, one query budget.
    let db = metered_db(3_000);
    let schema = Arc::new(db.schema().clone());
    let site = LocalSite::new(Arc::clone(&db), Arc::clone(&schema));
    let iface = WebFormInterface::new(LatencyTransport::new(site, 10), schema, 150, false);
    let mut tasks = vec![SiteTask::new("metered", iface)];
    let report = RunPlan::target(200).walkers(4).seed(500).run(&mut tasks);
    let site = report.site();
    assert_eq!(site.stopped, StopReason::TargetReached);
    assert_eq!(site.samples.len(), 200);
    assert!(db.queries_issued() <= 3_000);
    assert_eq!(
        site.requests,
        site.queries_issued + site.history_hits,
        "every request is a charged fetch or a shared-cache hit"
    );
    assert!(site.history_hits > 0, "walkers answer each other's queries");
    for row in site.samples.rows() {
        assert!(db.oracle().tuple_by_key(row.key).is_some());
    }
}

#[test]
fn scoped_sampling_respects_figure3_style_bindings() {
    let db = Arc::new(
        WorkloadSpec::vehicles(
            VehiclesSpec::compact(6_000, 3),
            DbConfig::no_counts().with_k(150),
        )
        .build(),
    );
    let schema = db.schema().clone();
    let scope = ConjunctiveQuery::from_named(&schema, [("condition", "used")]).unwrap();
    let cond = schema.attr_by_name("condition").unwrap();

    let mut sampler = HdsSampler::new(
        CachingExecutor::new(Arc::clone(&db)),
        SamplerConfig::seeded(4).with_scope(scope.clone()),
    )
    .unwrap();
    let outcome = SamplingSession::new(150).run(&mut sampler, |_| {});
    assert_eq!(outcome.reason, StopReason::TargetReached);
    for row in outcome.samples.rows() {
        assert_eq!(row.values[cond.index()], 1, "every sample is a used car");
    }

    // The scoped sample estimates the scoped population, not the whole DB.
    let price = schema.measure_by_name("price_usd").unwrap();
    let est = Estimator::new(&outcome.samples).avg(price, |_| true);
    let truth = db.oracle().avg(&scope, price).unwrap();
    assert!(
        (est.value - truth).abs() / truth < 0.25,
        "scoped AVG {} vs scoped truth {}",
        est.value,
        truth
    );
}

#[test]
fn drill_attribute_restriction_limits_queries_to_those_attributes() {
    let db = Arc::new(
        WorkloadSpec::vehicles(
            VehiclesSpec::compact(2_000, 5),
            DbConfig::no_counts().with_k(50),
        )
        .build(),
    );
    let cfg = SamplerConfig::seeded(6).with_drill_attrs(["make", "year", "price"]);
    let mut sampler = HdsSampler::new(DirectExecutor::new(Arc::clone(&db)), cfg).unwrap();
    assert_eq!(sampler.drill_attrs().len(), 3);
    // Samples may exist or dead-end depending on k; just require progress
    // or a clean WalkLimit — never a panic.
    for _ in 0..20 {
        match sampler.next_sample() {
            Ok(s) => assert!(db.oracle().tuple_by_key(s.row.key).is_some()),
            Err(SamplerError::WalkLimit { .. }) => break,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
