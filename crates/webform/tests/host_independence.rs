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

use hdsampler_core::{TraceEvent, TraceSink};
use hdsampler_webform::{Driver, RunPlan, SiteLocator};

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
