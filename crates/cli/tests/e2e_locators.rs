//! End-to-end locator tests: scrape-based discovery against a live
//! server, heterogeneous three-scheme fleets in one [`RunPlan`], and the
//! committed zero-server replay fixture.

use std::sync::Arc;

use hdsampler_core::{
    CachingExecutor, HdsSampler, QueryExecutor as _, SampleSink, SamplingSession,
};
use hdsampler_estimator::Histogram;
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::AttrId;
use hdsampler_model::FormInterface as _;
use hdsampler_server::{HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::{
    ConnectOptions, ConnectorRegistry, FleetConfig, HttpTransport, LocalSite, RunPlan, SiteLocator,
    SiteTask, WebFormInterface,
};
use hdsampler_workload::{resolve_dataset, DbConfig, WorkloadSpec};

fn build_db(dataset: &str, n: usize, k: usize, seed: u64) -> HiddenDb {
    WorkloadSpec {
        data: resolve_dataset(dataset).unwrap().data_spec(n, seed),
        db: DbConfig::no_counts().with_k(k),
        seed,
    }
    .build()
}

/// Boot a live `serve`-equivalent front door over the given dataset on an
/// ephemeral port.
fn serve(dataset: &str, n: usize, k: usize, seed: u64) -> ServerHandle {
    let db = build_db(dataset, n, k, seed);
    let schema = Arc::new(db.schema().clone());
    let site = Arc::new(LocalSite::new(db, schema));
    HttpServer::serve(ServerConfig::default(), site).unwrap()
}

fn keys(samples: &hdsampler_core::SampleSet) -> Vec<u64> {
    samples.rows().map(|r| r.key).collect()
}

fn plan(target: usize, seed: u64) -> RunPlan<'static> {
    RunPlan::target(target).walkers(1).seed(seed)
}

/// The headline acceptance criterion: `sample http://addr` with *zero*
/// schema flags discovers the schema by scraping `/` and then walks the
/// exact same sample sequence as a run configured from flags.
#[test]
fn discovery_matches_flag_configured_run_sequence_identically() {
    let handle = serve("vehicles-compact", 400, 50, 2009);
    let addr = handle.addr().to_string();

    // Hand-configured baseline: the schema, k and count support are built
    // locally from the dataset's parameters rather than discovered.
    let twin = build_db("vehicles-compact", 400, 50, 2009);
    let schema = Arc::new(twin.schema().clone());
    let (k, counts) = (twin.result_limit(), twin.supports_count());
    drop(twin);
    let iface = WebFormInterface::new(HttpTransport::new(&addr), schema, k, counts);
    let mut flagged = vec![SiteTask::new("flagged", iface)];
    let flag_report = plan(30, 7).run(&mut flagged);

    // Locator run: nothing but the address crosses the wire.
    let loc = SiteLocator::parse(&format!("http://{addr}")).unwrap();
    let (loc_report, _fleet) = plan(30, 7).run_locators(&[loc]).unwrap();

    let flag_keys = keys(&flag_report.site().samples);
    let loc_keys = keys(&loc_report.site().samples);
    assert_eq!(flag_keys.len(), 30, "{:?}", flag_report.site().stopped);
    assert_eq!(
        flag_keys, loc_keys,
        "a discovered schema must walk the identical sample sequence"
    );
    handle.shutdown();
}

/// One RunPlan over a three-scheme heterogeneous fleet — a replayed tape
/// (slot 0, serverless), an in-process Boolean site, and a live HTTP
/// server over a third schema — with the replay leg reproducing the
/// recorded sample sequence bit-identically.
#[test]
fn mixed_fleet_drives_three_schemes_with_per_site_schemas() {
    let tape = std::env::temp_dir().join(format!("hds_e2e_mixed_{}.jsonl", std::process::id()));
    let tape_str = tape.to_str().unwrap().to_string();

    // Record leg 0 solo, under the exact plan config the fleet will use:
    // walker seeds mix the site index, so the tape only replays from the
    // same slot with the same target/walkers/seed.
    let recorded_loc = SiteLocator::parse("local:vehicles-compact?n=400&k=50&seed=11").unwrap();
    let (rec_report, _task) = plan(12, 5)
        .slider(1.0)
        .run_locators_with(
            &[recorded_loc],
            &ConnectOptions {
                record: Some(tape_str.clone()),
                l2: None,
            },
        )
        .unwrap();
    let recorded_keys = keys(&rec_report.site().samples);
    assert_eq!(recorded_keys.len(), 12);

    // The live leg serves a different schema than either simulated leg —
    // with a generous k so the 12-attribute form's walks stay short.
    let handle = serve("vehicles-full", 600, 300, 3);
    let locators = vec![
        SiteLocator::parse(&format!("replay:{tape_str}")).unwrap(),
        SiteLocator::parse("local:boolean?n=300&k=30&seed=2").unwrap(),
        SiteLocator::parse(&format!("http://{}", handle.addr())).unwrap(),
    ];
    // slider 1.0 keeps the deep 12-attribute vehicles-full walks cheap;
    // it must match the recording run for the tape to replay.
    let (report, fleet) = plan(12, 5).slider(1.0).run_locators(&locators).unwrap();
    handle.shutdown();

    // Every leg reached its target, and the schemas really differ per site.
    assert_eq!(report.fleet.sites.len(), 3);
    for site in &report.fleet.sites {
        assert_eq!(site.samples.len(), 12, "{}: {:?}", site.name, site.stopped);
    }
    let arities: Vec<usize> = fleet.iter().map(|t| t.iface.schema().arity()).collect();
    assert_eq!(arities.len(), 3);
    assert_ne!(arities[0], arities[1]);
    assert_ne!(arities[1], arities[2]);
    assert_ne!(arities[0], arities[2]);

    // The serverless replay leg reproduced the recorded walk exactly.
    assert_eq!(
        keys(&report.fleet.sites[0].samples),
        recorded_keys,
        "replay must reproduce the recorded sample sequence bit-identically"
    );
    std::fs::remove_file(&tape).ok();
}

/// The committed CI fixture still replays: 25/25 samples with no server,
/// under the CLI's default plan (`sample replay:… --samples 25`). If this
/// fails after a sampler/schema change, regenerate the fixture with:
/// `cargo run -p hdsampler-cli -- sample "local:vehicles-compact?n=400&k=50&seed=2009" --samples 25 --record crates/cli/tests/fixtures/replay_smoke.jsonl`
#[test]
fn committed_replay_fixture_is_fresh() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/replay_smoke.jsonl"
    );
    let loc = SiteLocator::parse(&format!("replay:{path}")).unwrap();
    let task = ConnectorRegistry::standard()
        .connect(&loc, &ConnectOptions::default())
        .unwrap();
    assert_eq!(task.iface.result_limit(), 50, "k comes off the taped `/`");
    drop(task);

    // The CLI's defaults: slider 0, seed 2009, one walker.
    let (report, _fleet) = plan(25, 2009).run_locators(&[loc]).unwrap();
    assert_eq!(
        report.site().samples.len(),
        25,
        "stale fixture? stopped: {:?} — regenerate it (see test doc)",
        report.site().stopped
    );
}

/// What one session observed: sample keys, logical requests, charged
/// fetches and the online histogram over the first attribute.
type Observed = (Vec<u64>, u64, u64, Vec<f64>);

/// The front door's one-walker plan against the same session composed by
/// hand from a blocking sampler: both must see the identical session on
/// every wire.
fn front_door_matches_hand_built(loc: &str, target: usize) {
    let loc = SiteLocator::parse(loc).unwrap();
    let connect = || {
        ConnectorRegistry::standard()
            .connect(&loc, &ConnectOptions::default())
            .unwrap()
    };

    let mut task = connect();
    let schema = task.iface.schema().clone();
    let mut hist = Histogram::new(&schema, AttrId(0));
    let report = RunPlan::target(target)
        .walkers(1)
        .attach(&mut hist)
        .run(std::slice::from_mut(&mut task));
    let site = report.site();
    let front: Observed = (
        keys(&site.samples),
        site.requests,
        site.queries_issued,
        hist.counts().to_vec(),
    );

    let task = connect();
    let exec = CachingExecutor::new(&task.iface);
    // A plan left at its defaults (seed 2009, slider 0, no scope) seeds
    // its one walker as the default fleet configuration does.
    let cfg = FleetConfig::default().walker_config(0, 0);
    let mut sampler = HdsSampler::new(&exec, cfg).unwrap();
    let mut hist = Histogram::new(&schema, AttrId(0));
    let outcome = {
        let mut sinks: Vec<&mut dyn SampleSink> = vec![&mut hist];
        SamplingSession::new(target).run_observed(&mut sampler, &mut sinks, |_| {})
    };
    let hand: Observed = (
        keys(&outcome.samples),
        exec.requests(),
        exec.queries_issued(),
        hist.counts().to_vec(),
    );

    assert_eq!(front.0.len(), target, "{loc}: {:?}", site.stopped);
    assert_eq!(
        front, hand,
        "{loc}: the front door drifted from the blocking session"
    );
}

#[test]
fn front_door_is_the_blocking_session_on_every_wire() {
    front_door_matches_hand_built("local:vehicles-compact?n=2000&k=100&seed=5", 150);
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/replay_smoke.jsonl"
    );
    front_door_matches_hand_built(&format!("replay:{fixture}"), 25);
    let handle = serve("vehicles-compact", 2000, 100, 5);
    front_door_matches_hand_built(&format!("http://{}", handle.addr()), 150);
    handle.shutdown();
}
