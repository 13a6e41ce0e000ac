//! EXP-R1 — cross-site work-stealing under adversarial throttling.
//!
//! Half the fleet sits behind rate-limiting adversaries (seeded
//! [`ChaosTransport`] schedules: 429 + `Retry-After`, transient 503s,
//! dropped connections); the other half answers cleanly. Without
//! stealing, the clean sites finish early and their walkers idle while
//! the throttled half grinds alone. With stealing, finished sites donate
//! their walker slots to the hungriest survivors.
//!
//! Acceptance bar: stealing lifts fleet throughput (samples per virtual
//! second) by ≥ 1.5× over no-stealing on the same fleet and seeds, with
//! both runs collecting the full target and charging identical logical
//! query counts (retries are never double-charged).

use std::sync::Arc;

use hdsampler_bench::{f, section, table};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::FormInterface;
use hdsampler_webform::{
    ChaosSpec, ChaosTransport, FleetReport, LocalSite, RetryPolicy, RunPlan, SiteTask,
    WebFormInterface,
};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

const SITES: usize = 4;
const WALKERS: usize = 4;
const TARGET_PER_SITE: usize = 120;
const LATENCY_MS: u64 = 40;
const RETRY_AFTER_MS: u64 = 600;

/// Sites 0 and 2 are throttled; 1 and 3 answer cleanly.
fn throttled(i: usize) -> bool {
    i.is_multiple_of(2)
}

fn build_fleet() -> Vec<SiteTask<ChaosTransport<LocalSite<HiddenDb>>>> {
    (0..SITES)
        .map(|i| {
            let db = WorkloadSpec::vehicles(
                VehiclesSpec::compact(1_000, 90 + i as u64),
                DbConfig::no_counts().with_k(100),
            )
            .build();
            let schema = Arc::new(db.schema().clone());
            let k = db.result_limit();
            let site = LocalSite::new(db, Arc::clone(&schema));
            let spec = if throttled(i) {
                ChaosSpec {
                    seed: 40 + i as u64,
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
            };
            let wire = ChaosTransport::new(site, spec);
            SiteTask::new(
                format!("site-{i}{}", if throttled(i) { " (throttled)" } else { "" }),
                WebFormInterface::new(wire, schema, k, false).with_retry(RetryPolicy {
                    max_retries: 20,
                    base_backoff_ms: 25,
                    max_backoff_ms: RETRY_AFTER_MS,
                }),
            )
        })
        .collect()
}

fn run(steal: bool) -> FleetReport {
    let report = RunPlan::target(TARGET_PER_SITE)
        .walkers(WALKERS)
        .seed(2009)
        .slider(0.4)
        .steal(steal)
        .run(&mut build_fleet())
        .fleet;
    assert_eq!(report.total_samples(), SITES * TARGET_PER_SITE);
    report
}

fn main() {
    section("EXP-R1: work-stealing under adversarial throttling");
    println!(
        "  {SITES} sites ({} throttled at 50% + 5% 503s + 3% drops, Retry-After {RETRY_AFTER_MS} \
         ms), {TARGET_PER_SITE} samples/site, {WALKERS} walkers/site, {LATENCY_MS} ms latency",
        (0..SITES).filter(|&i| throttled(i)).count(),
    );

    let without = run(false);
    let with = run(true);

    assert_eq!(without.total_steals(), 0, "stealing is opt-in");
    assert!(with.total_steals() > 0, "walkers must actually move");
    // Retry accounting invariant: stealing changes who does the work, not
    // how much work is charged. Retries ride out the same fault schedule
    // in both runs without ever becoming extra logical queries.
    assert!(without.total_retries() > 0 && with.total_retries() > 0);
    for report in [&without, &with] {
        for site in &report.sites {
            assert_eq!(
                site.queries_issued, site.stats.queries_issued,
                "{}: budget view is logical queries only",
                site.name
            );
        }
    }

    let mut rows = Vec::new();
    for (label, report) in [("no stealing", &without), ("stealing", &with)] {
        for site in &report.sites {
            rows.push(vec![
                label.to_string(),
                site.name.clone(),
                site.samples.len().to_string(),
                site.retries.to_string(),
                f(site.backoff_vms as f64 / 1_000.0, 1),
                site.steals.to_string(),
                f(site.elapsed_ms as f64 / 1_000.0, 1),
            ]);
        }
    }
    table(
        &[
            "run",
            "site",
            "samples",
            "retries",
            "backoff s",
            "steals",
            "elapsed s",
        ],
        &rows,
    );
    println!(
        "  fleet: {:.1} s without stealing vs {:.1} s with ({} walkers stolen)",
        without.fleet_elapsed_ms as f64 / 1_000.0,
        with.fleet_elapsed_ms as f64 / 1_000.0,
        with.total_steals(),
    );

    let speedup = without.fleet_elapsed_ms as f64 / with.fleet_elapsed_ms.max(1) as f64;
    let throughput = with.samples_per_vsec() / without.samples_per_vsec().max(f64::MIN_POSITIVE);
    assert!(
        throughput >= 1.5,
        "stealing must lift fleet throughput >= 1.5x when half the fleet is throttled, \
         got {throughput:.2}x ({:.1} -> {:.1} smp/vsec)",
        without.samples_per_vsec(),
        with.samples_per_vsec(),
    );
    println!(
        "  PASS: stealing {speedup:.1}x faster fleet ({throughput:.2}x throughput, bar 1.5x): \
         {:.1} -> {:.1} smp/vsec",
        without.samples_per_vsec(),
        with.samples_per_vsec(),
    );
}
