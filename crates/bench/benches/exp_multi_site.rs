//! EXP-M1 — fleet-scale driving: one process, S sites, W walkers per
//! site, a virtual 100 ms wire.
//!
//! The paper's cost model is round trips; PR 1 made per-probe CPU cheap
//! enough that the wire dominates. This experiment measures what the
//! per-connection clock model buys: one fleet [`RunPlan`] overlaps every
//! site's walkers' requests (fleet time = max over connections), while
//! the serial baseline — a loop of one-site, one-walker plans — drives the
//! same sites one after another on a single connection each (fleet time =
//! sum over sites). Per-site query budgets and the per-site shared history cache
//! are active end-to-end.
//!
//! Expected shape: time-to-N-samples for the whole fleet is roughly flat
//! in S for the concurrent fleet and linear in S for the serial loop —
//! ≥ 4× apart at S = 16 (the acceptance bar; walker parallelism pushes it
//! far higher).

use std::sync::Arc;

use hdsampler_bench::{f, section, table};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::FormInterface;
use hdsampler_webform::{
    ChaosTransport, FleetReport, LatencyTransport, LocalSite, RunPlan, SiteTask, WebFormInterface,
};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

const LATENCY_MS: u64 = 100;
const TARGET_PER_SITE: usize = 100;
const BUDGET_PER_SITE: u64 = 5_000;
const WALKERS_PER_SITE: usize = 4;

fn build_fleet(sites: usize) -> Vec<SiteTask<ChaosTransport<LocalSite<HiddenDb>>>> {
    (0..sites)
        .map(|i| {
            let db = WorkloadSpec::vehicles(
                VehiclesSpec::compact(1_000, 40 + i as u64),
                DbConfig::no_counts()
                    .with_k(100)
                    .with_budget(BUDGET_PER_SITE),
            )
            .build();
            let schema = Arc::new(db.schema().clone());
            let k = db.result_limit();
            let site = LocalSite::new(db, Arc::clone(&schema));
            let wire = LatencyTransport::new(site, LATENCY_MS);
            SiteTask::new(
                format!("site-{i}"),
                WebFormInterface::new(wire, schema, k, false),
            )
        })
        .collect()
}

fn main() {
    section("EXP-M1: concurrent multi-site driving vs the serial baseline");
    println!(
        "  {TARGET_PER_SITE} samples/site, {LATENCY_MS} ms virtual latency, \
         {WALKERS_PER_SITE} walkers/site, budget {BUDGET_PER_SITE} fetches/site"
    );

    let plan = |walkers: usize| {
        RunPlan::target(TARGET_PER_SITE)
            .walkers(walkers)
            .seed(2009)
            .slider(0.4)
    };
    // The serial baseline: each site alone on one connection, one after
    // another, so fleet time is the sum over sites.
    let serial = |sites: usize| {
        let reports: Vec<FleetReport> = build_fleet(sites)
            .into_iter()
            .map(|task| plan(1).run(&mut [task]).fleet)
            .collect();
        FleetReport {
            fleet_elapsed_ms: reports.iter().map(|r| r.fleet_elapsed_ms).sum(),
            sites: reports.into_iter().flat_map(|r| r.sites).collect(),
        }
    };

    let mut rows = Vec::new();
    let mut speedup_at = Vec::new();
    for sites in [1usize, 4, 16] {
        let serial = serial(sites);
        let concurrent = plan(WALKERS_PER_SITE).run(&mut build_fleet(sites)).fleet;
        assert_eq!(serial.total_samples(), sites * TARGET_PER_SITE);
        assert_eq!(concurrent.total_samples(), sites * TARGET_PER_SITE);
        for report in [&serial, &concurrent] {
            for site in &report.sites {
                assert!(
                    site.queries_issued <= BUDGET_PER_SITE,
                    "per-site budget enforced"
                );
                assert!(site.history_hits > 0, "shared history cache active");
            }
        }
        let speedup = serial.fleet_elapsed_ms as f64 / concurrent.fleet_elapsed_ms as f64;
        speedup_at.push((sites, speedup));
        rows.push(vec![
            sites.to_string(),
            f(serial.fleet_elapsed_ms as f64 / 1_000.0, 1),
            f(concurrent.fleet_elapsed_ms as f64 / 1_000.0, 1),
            f(serial.samples_per_vsec(), 1),
            f(concurrent.samples_per_vsec(), 1),
            f(speedup, 1),
        ]);
    }
    table(
        &[
            "sites",
            "serial s",
            "concurrent s",
            "serial smp/s",
            "concurrent smp/s",
            "speedup",
        ],
        &rows,
    );

    let (_, s16) = *speedup_at.last().expect("three fleet sizes");
    assert!(
        s16 >= 4.0,
        "the concurrent fleet must beat serial ≥4× at 16 sites, got {s16:.1}×"
    );
    assert!(
        speedup_at.windows(2).all(|w| w[1].1 >= w[0].1 * 0.8),
        "speedup must grow (roughly) with fleet size: {speedup_at:?}"
    );
    println!(
        "  PASS: {s16:.1}× at S = 16 — the fleet's time-to-{TARGET_PER_SITE}-samples \
         is set by the slowest site, not the sum of all sites"
    );
}
