//! End-to-end streaming guarantee: a multi-site [`RunPlan`] run on the
//! cooperative engine feeds live [`SampleSink`]
//! snapshots whose final state is **byte-identical** to the post-hoc
//! batch estimate over the collected samples — the §3.4 incremental
//! Output Module, verified against its batch twin.

use std::any::Any;
use std::sync::Arc;

use hdsampler::prelude::*;

type Wire = LatencyTransport<LocalSite<Arc<HiddenDb>>>;

fn site_task(name: &str, n: usize, seed: u64, latency_ms: u64) -> SiteTask<Wire> {
    let db = hdsampler::simulated_site(n, 60, seed);
    let schema = Arc::new(db.schema().clone());
    let k = db.result_limit();
    let supports = db.supports_count();
    let site = LocalSite::new(Arc::clone(&db), Arc::clone(&schema));
    let wire = LatencyTransport::new(site, latency_ms);
    SiteTask::new(name, WebFormInterface::new(wire, schema, k, supports))
}

/// A live display stand-in: records a histogram snapshot every `every`
/// observations, like the demo's AJAX refresh.
struct LiveSnapshots {
    hist: Histogram,
    every: usize,
    seen: usize,
    snapshots: Vec<Histogram>,
}

impl LiveSnapshots {
    fn new(hist: Histogram, every: usize) -> Self {
        LiveSnapshots {
            hist,
            every,
            seen: 0,
            snapshots: Vec::new(),
        }
    }
}

impl SampleSink for LiveSnapshots {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        self.hist.add(&event.sample.row, event.sample.weight);
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.snapshots.push(self.hist.snapshot());
        }
    }

    fn fork(&self) -> Box<dyn SampleSink> {
        unreachable!("single-threaded coop run never forks run-level sinks");
    }

    fn merge(&mut self, _other: Box<dyn SampleSink>) {
        unreachable!("single-threaded coop run never forks run-level sinks");
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

fn assert_bit_identical(a: &Histogram, b: &Histogram, what: &str) {
    assert_eq!(a.counts().len(), b.counts().len(), "{what}: arity");
    for (i, (x, y)) in a.counts().iter().zip(b.counts()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bucket {i}");
    }
    assert_eq!(a.total().to_bits(), b.total().to_bits(), "{what}: total");
}

#[test]
fn coop_multi_site_live_snapshots_equal_posthoc_batch() {
    let make = AttrId(0);
    let cond_attr = AttrId(1);
    let price = MeasureId(0);
    let schema = {
        let db = hdsampler::simulated_site(50, 60, 1);
        db.schema().clone()
    };
    let target = 90;

    // Per-site live histograms ride the SiteTasks; a whole zoo of
    // run-level estimators observes the fleet-wide stream.
    let mut fleet = vec![
        site_task("alpha", 700, 11, 40).with_sink(Box::new(Histogram::new(&schema, make))),
        site_task("beta", 700, 22, 90).with_sink(Box::new(Histogram::new(&schema, make))),
        site_task("gamma", 700, 33, 60).with_sink(Box::new(Histogram::new(&schema, make))),
    ];

    let pred = |r: &Row| r.values[0] == 0;
    let n_total = 700.0;
    let mut stream = SampleSetSink::new();
    let mut hist = Histogram::new(&schema, make);
    let mut marginal = OnlineMarginal::new(&schema, make);
    let mut cube = DataCube::new(&schema, make, cond_attr);
    let mut prop = OnlineProportion::new(pred);
    let mut count = OnlineCount::new(n_total, pred);
    let mut avg = OnlineAvg::new(price, pred);
    let mut sum = OnlineSum::new(n_total, price, pred);
    let mut size = OnlineSize::new();
    let mut live = LiveSnapshots::new(Histogram::new(&schema, make), 25);

    let report = RunPlan::target(target)
        .walkers(6)
        .seed(2009)
        .driver(Driver::Coop { conns: Some(3) })
        .attach(&mut stream)
        .attach(&mut hist)
        .attach(&mut marginal)
        .attach(&mut cube)
        .attach(&mut prop)
        .attach(&mut count)
        .attach(&mut avg)
        .attach(&mut sum)
        .attach(&mut size)
        .attach(&mut live)
        .run(&mut fleet);

    assert_eq!(report.total_samples(), 3 * target);
    assert!(
        report
            .fleet
            .sites
            .iter()
            .all(|s| s.per_walker_keys.len() == 6),
        "per-walker keys for every site"
    );

    // Per-site sinks: byte-identical to the batch build over that site's
    // collected samples, in acceptance order.
    for (task, site) in fleet.iter_mut().zip(&report.fleet.sites) {
        assert_eq!(site.stopped, StopReason::TargetReached);
        let sink = task.take_sink().expect("per-site sink attached");
        let online = sink
            .into_any()
            .downcast::<Histogram>()
            .expect("per-site sink is a histogram");
        let batch = Histogram::from_weighted(
            &schema,
            make,
            site.samples.samples().iter().map(|s| (&s.row, s.weight)),
        );
        assert_bit_identical(&online, &batch, &format!("site {}", site.name));
        assert_eq!(online.total() as usize, target);
    }

    // Run-level sinks: the SampleSetSink recorded the fleet's global
    // observation order; every online estimator's final state must be
    // byte-identical to the batch estimate over exactly that stream.
    let observed = stream.set();
    assert_eq!(observed.len(), 3 * target);
    {
        let mut site_keys: Vec<u64> = report
            .fleet
            .sites
            .iter()
            .flat_map(|s| s.samples.keys())
            .collect();
        let mut observed_keys = observed.keys();
        site_keys.sort_unstable();
        observed_keys.sort_unstable();
        assert_eq!(site_keys, observed_keys, "same multiset as the reports");
    }

    let batch_hist = Histogram::from_weighted(
        &schema,
        make,
        observed.samples().iter().map(|s| (&s.row, s.weight)),
    );
    assert_bit_identical(&hist, &batch_hist, "run-level histogram");

    let batch_marginal =
        MarginalEstimate::from_rows(&schema, make, observed.samples().iter().map(|s| &s.row));
    assert_eq!(marginal.snapshot(), batch_marginal, "marginal ≡ batch");

    let batch_cube = {
        let mut c = DataCube::new(&schema, make, cond_attr);
        for s in observed.samples() {
            c.add(&s.row, s.weight);
        }
        c
    };
    assert_eq!(cube, batch_cube, "cube ≡ batch");

    let est = Estimator::new(observed);
    for (online, batch, what) in [
        (prop.snapshot(), est.proportion(pred), "proportion"),
        (count.snapshot(), est.count(n_total, pred), "count"),
        (avg.snapshot(), est.avg(price, pred), "avg"),
        (sum.snapshot(), est.sum(n_total, price, pred), "sum"),
    ] {
        assert_eq!(online.n, batch.n, "{what}: n");
        assert_eq!(
            online.value.to_bits(),
            batch.value.to_bits(),
            "{what}: value"
        );
        assert_eq!(
            online.half_width.to_bits(),
            batch.half_width.to_bits(),
            "{what}: half width"
        );
    }

    assert_eq!(
        size.snapshot(),
        capture_recapture(observed.len(), observed.distinct()),
        "size ≡ batch capture–recapture"
    );

    // The live display took real mid-run snapshots, strictly growing,
    // and its final state is the batch state.
    assert!(
        live.snapshots.len() >= 2,
        "snapshots were taken mid-run: {}",
        live.snapshots.len()
    );
    for pair in live.snapshots.windows(2) {
        assert!(pair[0].total() < pair[1].total(), "snapshots grow");
    }
    assert_bit_identical(&live.hist, &batch_hist, "live display final state");
}

#[test]
fn run_plan_connection_layouts_agree_with_batch_too() {
    // One connection per walker, and every walker pipelined over a single
    // shared connection: run-level sinks keep the same final-state
    // guarantee against their own recorded streams either way.
    for conns in [None, Some(1)] {
        let schema = hdsampler::simulated_site(50, 60, 1).schema().clone();
        let make = AttrId(0);
        let mut fleet = vec![site_task("a", 400, 5, 30), site_task("b", 400, 6, 30)];
        let mut stream = SampleSetSink::new();
        let mut hist = Histogram::new(&schema, make);
        let report = RunPlan::target(40)
            .walkers(3)
            .seed(7)
            .driver(Driver::Coop { conns })
            .attach(&mut stream)
            .attach(&mut hist)
            .run(&mut fleet);
        assert_eq!(report.total_samples(), 80, "{conns:?}");
        assert_eq!(report.site().connections, conns.unwrap_or(3));
        let batch = Histogram::from_weighted(
            &schema,
            make,
            stream.set().samples().iter().map(|s| (&s.row, s.weight)),
        );
        assert_bit_identical(&hist, &batch, &format!("{conns:?}"));
    }
}
