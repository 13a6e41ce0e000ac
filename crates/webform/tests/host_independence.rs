//! Host independence: a seeded run's trace journal is a function of its
//! inputs alone, never of the machine it runs on.
//!
//! Anything host-derived in the engine — a table sized from the core
//! count, say — can change which history witness answers an inference,
//! and so which learn-time stamp floors the resumed walker: the journal's
//! cache-hit times, and with them the fleet's clocks, then move with the
//! host. CI runs this test twice, once pinned to one CPU (`taskset -c 0`)
//! and once on all of them, against one pin.

use std::any::Any;

use hdsampler_core::{StopReason, TraceEvent, TraceLog, TraceSink};
use hdsampler_webform::{ConnectOptions, Driver, RunPlan, SiteLocator};

/// FNV-1a over every event's journal line, in observation order.
struct DigestSink {
    hash: u64,
    events: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink {
            hash: 0xCBF2_9CE4_8422_2325,
            events: 0,
        }
    }
}

impl DigestSink {
    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

impl TraceSink for DigestSink {
    fn observe(&mut self, event: &TraceEvent) {
        let line = serde_json::to_string(event).expect("trace events serialize");
        self.absorb(line.as_bytes());
        self.absorb(b"\n");
        self.events += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn seeded_fleet_journal_is_independent_of_the_host() {
    let sites = [
        "local:vehicles-compact?n=2000&k=50&chaos=seed=7,latency=40,throttle=0.2,\
         retry_after=250,fail=0.1",
        "local:vehicles-compact?n=3000&k=50&seed=3&latency=20",
    ]
    .map(|s| SiteLocator::parse(s).unwrap());
    let mut digest = DigestSink::default();
    let (report, _fleet) = RunPlan::target(60)
        .walkers(16)
        .seed(2009)
        .slider(0.3)
        .driver(Driver::Coop { conns: Some(4) })
        .steal(true)
        .attach_trace(&mut digest)
        .run_locators(&sites)
        .unwrap();
    assert_eq!(report.total_samples(), 120);
    assert_eq!(
        (
            digest.hash,
            digest.events,
            report.fleet.total_fetches(),
            report.fleet.fleet_elapsed_ms
        ),
        (0x6f78_20cd_363f_1d3c, 3313, 530, 2580),
        "the seeded journal moved; on an unchanged program that means \
         something host-derived leaked into the run"
    );
}

/// One traced run of a two-leg fleet sharing the L2 root `root`: a leg
/// that persists and reuses facts, and a leg whose `budget=` runs out.
/// Returns the journal digest, its event count, the fleet's fetches and
/// its clock, and the journal itself.
fn traced_l2_budget_run(root: &str) -> ((u64, u64, u64, u64), Vec<TraceEvent>) {
    let sites = [
        "local:vehicles-compact?n=1500&k=50&seed=4&latency=30",
        "local:vehicles-compact?n=20000&k=50&seed=6&budget=30&latency=20",
    ]
    .map(|s| SiteLocator::parse(s).unwrap());
    let opts = ConnectOptions {
        record: None,
        l2: Some(root.to_string()),
    };
    let mut digest = DigestSink::default();
    let mut log = TraceLog::new();
    let (report, _fleet) = RunPlan::target(80)
        .walkers(4)
        .seed(2024)
        .slider(0.3)
        .driver(Driver::Coop { conns: Some(2) })
        .attach_trace(&mut digest)
        .attach_trace(&mut log)
        .run_locators_with(&sites, &opts)
        .unwrap();
    assert_eq!(report.fleet.sites[0].stopped, StopReason::TargetReached);
    assert_eq!(report.fleet.sites[1].stopped, StopReason::BudgetExhausted);
    (
        (
            digest.hash,
            digest.events,
            report.fleet.total_fetches(),
            report.fleet.fleet_elapsed_ms,
        ),
        log.events().to_vec(),
    )
}

#[test]
fn seeded_l2_and_budget_journal_is_independent_of_the_host() {
    let root = std::env::temp_dir().join(format!("hds_host_l2_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let root_str = root.to_str().unwrap();
    let (cold, cold_log) = traced_l2_budget_run(root_str);
    let (warm, warm_log) = traced_l2_budget_run(root_str);
    std::fs::remove_dir_all(&root).ok();
    let has = |log: &[TraceEvent], kind: &str, detail: &str| {
        log.iter().any(|e| e.kind == kind && e.detail == detail)
    };
    for (kind, detail) in [
        ("l2", "load"),
        ("l2", "miss"),
        ("l2", "put"),
        ("walk", "failed"),
    ] {
        assert!(
            has(&cold_log, kind, detail),
            "cold run journals {kind} {detail}"
        );
    }
    assert!(has(&warm_log, "l2", "hit"), "warm run journals l2 hit");
    assert_eq!(
        (cold, warm),
        (
            (0xc31c_97df_7f7f_268d, 2247, 268, 3480),
            (0x69da_c11a_51c2_3413, 1390, 37, 320)
        ),
        "the seeded journal moved; on an unchanged program that means \
         something host-derived leaked into the run"
    );
}
