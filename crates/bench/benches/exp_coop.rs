//! EXP-C1 — one thread, many pipelined walkers.
//!
//! A [`RunPlan`] runs every walker as a resumable
//! [`WalkMachine`](hdsampler_core::WalkMachine) multiplexed on a single
//! thread, so its concurrency is bounded by connections, not stacks.
//!
//! Acceptance bar: one OS thread driving 64 walker connections per site
//! reaches samples/vsec ≥ the same thread at W = 4.

use std::sync::Arc;

use hdsampler_bench::{f, section, table};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::FormInterface;
use hdsampler_webform::{
    Driver, FleetReport, LatencyTransport, LocalSite, RunPlan, SiteTask, WebFormInterface,
};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

const LATENCY_MS: u64 = 100;
const TARGET_PER_SITE: usize = 200;
const SITES: usize = 2;

fn build_fleet(sites: usize) -> Vec<SiteTask<LatencyTransport<LocalSite<HiddenDb>>>> {
    (0..sites)
        .map(|i| {
            let db = WorkloadSpec::vehicles(
                VehiclesSpec::compact(1_000, 90 + i as u64),
                DbConfig::no_counts().with_k(100),
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

/// `walkers` walkers per site on `conns` connections each (`None`: one
/// per walker), over a fresh fleet.
fn run(walkers: usize, conns: Option<usize>) -> FleetReport {
    RunPlan::target(TARGET_PER_SITE)
        .walkers(walkers)
        .seed(2009)
        .slider(0.4)
        .driver(Driver::Coop { conns })
        .run(&mut build_fleet(SITES))
        .fleet
}

fn main() {
    section("EXP-C1: one thread, many pipelined walkers");
    println!(
        "  {SITES} sites, {TARGET_PER_SITE} samples/site, {LATENCY_MS} ms virtual latency, \
         slider 0.4"
    );

    // Baseline: W = 4 walkers per site.
    let coop4 = run(4, None);
    assert_eq!(coop4.total_samples(), SITES * TARGET_PER_SITE);

    // W = 64: 64 pipelined connections per site.
    let coop64 = run(64, None);
    assert_eq!(coop64.total_samples(), SITES * TARGET_PER_SITE);
    for site in &coop64.sites {
        assert!(
            site.queries_issued > 0,
            "the wire must actually be exercised"
        );
    }

    // And W = 64 walkers squeezed onto 8 connections per site: pipelining
    // several requests deep per connection.
    let coop64x8 = run(64, Some(8));
    assert_eq!(coop64x8.total_samples(), SITES * TARGET_PER_SITE);

    let row = |name: &str, conns: usize, report: &FleetReport| {
        vec![
            name.to_string(),
            (SITES * conns).to_string(),
            f(report.fleet_elapsed_ms as f64 / 1_000.0, 1),
            f(report.samples_per_vsec(), 1),
        ]
    };
    let rows = vec![
        row("W=4", 4, &coop4),
        row("W=64", 64, &coop64),
        row("W=64 C=8", 8, &coop64x8),
    ];
    table(&["walkers", "connections", "fleet s", "smp/vsec"], &rows);

    assert!(
        coop64.samples_per_vsec() >= coop4.samples_per_vsec(),
        "W=64 ({:.1} smp/vs) must be >= W=4 ({:.1} smp/vs)",
        coop64.samples_per_vsec(),
        coop4.samples_per_vsec()
    );
    println!(
        "  PASS: 1 thread, {} connections: {:.1} smp/vsec >= W=4's {:.1}",
        SITES * 64,
        coop64.samples_per_vsec(),
        coop4.samples_per_vsec(),
    );
}
