//! Live dashboard: the demo's headline AJAX behavior — histograms that
//! refresh *while the fleet is still sampling* — driven through the
//! `RunPlan` front door and the `SampleSink` streaming observer API.
//!
//! ```bash
//! cargo run --release --example live_dashboard
//! ```
//!
//! Two simulated vehicle sites are driven by the cooperative driver (one
//! OS thread, walkers pipelined over shared connections). A custom sink
//! re-renders the fleet-wide `make` histogram every 40 samples, exactly
//! as the original demo's browser did; at the end, the live state is
//! compared bit-for-bit against the post-hoc batch build — the streaming
//! Output Module's equivalence guarantee.

use std::any::Any;
use std::sync::Arc;

use hdsampler::prelude::*;

type Wire = ChaosTransport<LocalSite<Arc<HiddenDb>>>;

fn site(name: &str, n: usize, seed: u64, latency_ms: u64) -> SiteTask<Wire> {
    let db = hdsampler::simulated_site(n, 100, seed);
    let schema = Arc::new(db.schema().clone());
    let k = db.result_limit();
    let supports = db.supports_count();
    let wire = LatencyTransport::new(
        LocalSite::new(Arc::clone(&db), Arc::clone(&schema)),
        latency_ms,
    );
    SiteTask::new(name, WebFormInterface::new(wire, schema, k, supports))
}

/// The "browser": re-renders the live histogram every `every` samples.
struct Dashboard {
    hist: Histogram,
    every: usize,
    seen: usize,
    renders: usize,
}

impl SampleSink for Dashboard {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        self.hist.add(&event.sample.row, event.sample.weight);
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.renders += 1;
            println!(
                "── live: {} samples in (site {} contributed last) ──",
                self.seen, event.site
            );
            println!("{}", self.hist.snapshot().render(32));
        }
    }

    fn fork(&self) -> Box<dyn SampleSink> {
        // The coop driver is single-threaded and never forks run-level
        // sinks; a fresh dashboard satisfies the contract anyway.
        Box::new(Dashboard {
            hist: Histogram::new_like_empty(&self.hist),
            every: self.every,
            seen: 0,
            renders: 0,
        })
    }

    fn merge(&mut self, _other: Box<dyn SampleSink>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Small helper: an empty histogram with the same attribute/labels.
trait EmptyLike {
    fn new_like_empty(h: &Histogram) -> Histogram;
}

impl EmptyLike for Histogram {
    fn new_like_empty(h: &Histogram) -> Histogram {
        *SampleSink::fork(h)
            .into_any()
            .downcast::<Histogram>()
            .expect("a histogram forks into a histogram")
    }
}

fn main() {
    let schema = hdsampler::simulated_site(10, 100, 7).schema().clone();
    let make = schema.attr_by_name("make").expect("vehicles have makes");

    let mut fleet = vec![
        site("dealer-a", 4_000, 7, 60),
        site("dealer-b", 4_000, 9, 120),
    ];
    let mut dashboard = Dashboard {
        hist: Histogram::new(&schema, make),
        every: 40,
        seen: 0,
        renders: 0,
    };
    let mut stream = SampleSetSink::new();

    println!("live dashboard: 2 sites × 8 cooperative walkers on one thread\n");
    let report = RunPlan::target(120)
        .walkers(8)
        .seed(2009)
        .driver(Driver::Coop { conns: Some(4) })
        .attach(&mut dashboard)
        .attach(&mut stream)
        .run(&mut fleet);

    println!(
        "collected {} samples over {} sites in {:.1} virtual s ({} live re-renders)",
        report.total_samples(),
        report.fleet.sites.len(),
        report.fleet.fleet_elapsed_ms as f64 / 1_000.0,
        dashboard.renders,
    );
    assert!(dashboard.renders >= 2, "the dashboard refreshed mid-run");

    // The streaming guarantee: final live state ≡ post-hoc batch build.
    let batch = Histogram::from_weighted(
        &schema,
        make,
        stream.set().samples().iter().map(|s| (&s.row, s.weight)),
    );
    assert_eq!(dashboard.hist, batch, "live ≡ batch, bit for bit");
    println!("\nfinal (batch-verified) histogram:\n{}", batch.render(40));
}
