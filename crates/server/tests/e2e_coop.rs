//! End-to-end: the cooperative pipelined walker drives a *live*
//! `hdsampler-server` over loopback TCP — hundreds of in-flight requests
//! multiplexed onto a handful of connections by one thread — and each
//! walker's sample sequence equals what a standalone blocking sampler
//! produces for the same (site, walker) seed.

use std::sync::Arc;

use hdsampler_core::{DirectExecutor, HdsSampler, Sampler, StopReason, TraceLog};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::{FormInterface, Schema};
use hdsampler_server::{Adversary, HttpServer, ServerConfig, ServerHandle};
use hdsampler_webform::urlenc::encode;
use hdsampler_webform::{
    AsyncTransport as _, ChaosSpec, Driver, FetchPoll, FleetConfig, HttpTransport, LocalSite,
    RunPlan, SiteTask, Transport as _, WebFormInterface,
};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

fn vehicles_db(seed: u64) -> HiddenDb {
    WorkloadSpec::vehicles(
        VehiclesSpec::compact(600, seed),
        DbConfig::no_counts().with_k(50),
    )
    .build()
}

fn serve(db: HiddenDb) -> (ServerHandle, Arc<Schema>, usize) {
    let schema = Arc::new(db.schema().clone());
    let k = db.result_limit();
    let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
    let handle = HttpServer::serve(ServerConfig::default(), site).expect("bind loopback");
    (handle, schema, k)
}

fn remote_task(server: &ServerHandle, schema: &Arc<Schema>, k: usize) -> SiteTask<HttpTransport> {
    SiteTask::new(
        "live",
        WebFormInterface::new(
            HttpTransport::new(server.addr().to_string()),
            Arc::clone(schema),
            k,
            false,
        ),
    )
}

#[test]
fn coop_sequences_over_tcp_match_per_walker_seeds() {
    // The cooperative driver over a real socket must produce, per walker,
    // exactly the sample sequence a standalone blocking HdsSampler
    // produces for the same FleetConfig::walker_config seed, checked
    // through HTTP parsing, scraping and the shared history cache.
    let (server, schema, k) = serve(vehicles_db(4242));
    let cfg = FleetConfig {
        walkers_per_site: 4,
        target_per_site: 48,
        seed: 2009,
        slider: 0.5,
        ..FleetConfig::default()
    };
    let mut task = remote_task(&server, &schema, k);
    let report = RunPlan::target(cfg.target_per_site)
        .walkers(cfg.walkers_per_site)
        .seed(cfg.seed)
        .slider(cfg.slider)
        .run(std::slice::from_mut(&mut task));
    assert_eq!(report.site().stopped, StopReason::TargetReached);
    assert_eq!(report.total_samples(), 48);

    let per_walker = &report.site().per_walker_keys;
    assert_eq!(per_walker.len(), 4);
    assert!(per_walker.iter().filter(|k| !k.is_empty()).count() >= 2);

    for (w, keys) in per_walker.iter().enumerate() {
        // In-process twin with the same data seed, driven synchronously.
        let twin = vehicles_db(4242);
        let twin_schema = Arc::new(twin.schema().clone());
        let iface = WebFormInterface::new(
            LocalSite::new(twin, Arc::clone(&twin_schema)),
            twin_schema,
            k,
            false,
        );
        let mut reference =
            HdsSampler::new(DirectExecutor::new(&iface), cfg.walker_config(0, w)).unwrap();
        let expect: Vec<u64> = (0..keys.len())
            .map(|_| reference.next_sample().unwrap().row.key)
            .collect();
        assert_eq!(keys, &expect, "walker {w} diverged over the real wire");
    }

    let stats = server.shutdown();
    assert_eq!(stats.responses_server_error, 0);
    assert_eq!(
        stats.requests,
        report.site().queries_issued,
        "every charged fetch is a served request"
    );
}

#[test]
fn hundreds_of_pipelined_walkers_on_many_connections() {
    // 256 walker machines, 64 TCP connections, one client thread: up to
    // 256 requests in flight, pipelined 4-deep per connection. The
    // reactor multiplexes all 64 keep-alive sockets on per-core readiness
    // loops (a thread-per-connection server would need 64 workers), so
    // the wide fan-out must sail through with zero server errors.
    let (server, schema, k) = serve(vehicles_db(99));
    let mut task = remote_task(&server, &schema, k);
    let mut trace = TraceLog::new();
    let report = RunPlan::target(200)
        .walkers(256)
        .seed(7)
        .slider(0.4)
        .driver(Driver::Coop { conns: Some(64) })
        .attach_trace(&mut trace)
        .run(std::slice::from_mut(&mut task));

    let site = report.site();
    assert_eq!(site.stopped, StopReason::TargetReached);
    assert_eq!(site.samples.len(), 200);
    assert_eq!(site.connections, 64);
    assert!(
        site.queries_issued >= 200,
        "200 fresh-site samples need at least one fetch each"
    );

    // The driver stalls (every walker parked on an in-flight fetch) must
    // resolve by parking in the client reactor's `epoll_wait` — never by
    // the blocking `complete_query` fallback, which is reserved for a
    // silent server. The trace stream records each resolution.
    let forces = trace
        .events()
        .iter()
        .filter(|e| e.kind == "stall" && e.detail == "force")
        .count();
    assert_eq!(
        forces, 0,
        "a live wire with a reactor never blocks on one completion"
    );

    let t = task.iface.transport();
    assert_eq!(
        t.connections(),
        64,
        "exactly the 64 requested TCP connections"
    );
    assert_eq!(
        t.open_connections(),
        0,
        "the driver reaps idle keep-alive sockets when the site finishes"
    );

    let stats = server.shutdown();
    // The server-side count is the leak check: 256 walkers over one run
    // must have cost 64 TCP connections, not one-per-walker (and no
    // reconnect churn on top).
    assert_eq!(
        stats.connections, 64,
        "no reconnect churn and no per-walker sockets"
    );
    assert_eq!(stats.responses_server_error, 0);
    // Every charged fetch was written to the wire; the server parses all
    // of them except the (≤ walkers) in-flight ones cancelled when the
    // target landed, whose sockets closed before they were read.
    assert!(
        stats.requests <= site.queries_issued
            && stats.requests >= site.queries_issued.saturating_sub(256),
        "served {} of {} charged fetches",
        stats.requests,
        site.queries_issued
    );
}

#[test]
fn concurrent_blocking_fetches_share_one_connection() {
    // The blocking face rides one connection whatever thread calls it:
    // eight threads fetching different pages at once pipeline on it, and
    // each gets its own page back. `close_idle` closes the socket, and
    // the next fetch reopens that same connection.
    let (server, schema, _k) = serve(vehicles_db(5));
    let local = LocalSite::new(vehicles_db(5), Arc::clone(&schema));
    let t = HttpTransport::new(server.addr().to_string());
    let makes = &schema.attributes()[0];
    let paths: Vec<String> = (0..8)
        .map(|i| {
            let label = makes.label((i % makes.domain_size()) as u16);
            format!("/search?{}={}", makes.name(), encode(&label))
        })
        .collect();

    let start = std::sync::Barrier::new(paths.len());
    let pages: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = paths
            .iter()
            .map(|path| {
                let (t, start) = (&t, &start);
                s.spawn(move || {
                    start.wait();
                    t.fetch(path).expect("page served")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (path, page) in paths.iter().zip(&pages) {
        assert_eq!(page, &local.fetch(path).unwrap(), "{path} got its own page");
    }
    assert_eq!(t.connections(), 1, "one connection for every thread");
    assert_eq!(t.open_connections(), 1);

    assert_eq!(t.close_idle(), 1);
    assert_eq!(t.open_connections(), 0);
    t.fetch(&paths[0]).expect("page served after close_idle");
    assert_eq!(t.connections(), 1, "the same connection reopened");
    assert_eq!(t.open_connections(), 1);
    t.close_idle();

    let stats = server.shutdown();
    assert_eq!(stats.responses_server_error, 0);
    assert_eq!(stats.connections, 2, "one socket, reopened once");
}

#[test]
fn chaos_serve_sequence_is_pinned() {
    // One walker on one connection steps strictly sequentially (every
    // submit depends on the previous response), so against a seeded
    // adversary the whole exchange — sample keys, fault schedule, retries
    // — is a pure function of the seeds and the server's bytes. The
    // figures below were recorded while `Adversary` still slept inside
    // the serve loop; carrying the delay as `Response::delay` onto the
    // reactor's timer heap must not move a single one of them.
    let db = vehicles_db(77);
    let schema = Arc::new(db.schema().clone());
    let k = db.result_limit();
    let site = LocalSite::new(db, Arc::clone(&schema));
    let spec = ChaosSpec::parse(
        "seed=5,latency=3,throttle=0.1,retry_after=20,fail=0.1,drop=0.06,slow=40x12",
    )
    .expect("chaos spec");
    let server = HttpServer::serve(
        ServerConfig {
            reactor_threads: 1,
            ..ServerConfig::default()
        },
        Arc::new(Adversary::new(site, spec)),
    )
    .expect("bind loopback");
    let mut task = remote_task(&server, &schema, k);
    let report = RunPlan::target(32)
        .walkers(1)
        .seed(31)
        .slider(0.5)
        .driver(Driver::Coop { conns: Some(1) })
        .run(std::slice::from_mut(&mut task));
    let site = report.site();
    assert_eq!(site.stopped, StopReason::TargetReached);
    // FNV-1a over the fleet-order sample keys.
    let digest = site
        .samples
        .keys()
        .iter()
        .flat_map(|key| key.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    let stats = server.shutdown();
    assert_eq!(
        (
            digest,
            stats.requests,
            stats.connections_dropped,
            stats.responses_server_error,
            site.retries,
        ),
        (0x6778_d464_fe71_0762, 77, 5, 3, 20),
        "(key digest, requests, drops, 5xx, client retries)"
    );
}

#[test]
fn close_idle_deregisters_reactor_registrations_before_closing() {
    // Regression (stale epoll registration): `close_idle` used to drop
    // the socket and only then forget about the poller. Deregistering by
    // stored fd number *after* the close is at best a silent no-op and at
    // worst — once the kernel reuses the fd for a newly dialed cell —
    // removes the *live* cell's registration, so `wait_ready` parks for
    // its full timeout with no wake-up. The invariant under test:
    // reaping leaves zero registrations behind, and the reactor keeps
    // waking for connections dialed afterwards.
    let (server, _schema, _k) = serve(vehicles_db(43));
    let t = HttpTransport::new(server.addr().to_string());

    // Drive one fetch through the reactor path: submit, then park in
    // wait_ready until the completion is pumped in.
    let fetch_via_reactor = |t: &HttpTransport| {
        let conn = t.connect();
        let mut h = t.submit(conn, "/");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            assert!(
                std::time::Instant::now() < deadline,
                "reactor-driven fetch starved: a registration went missing"
            );
            match t.poll(h) {
                FetchPoll::Ready(r) => break r.expect("page served"),
                FetchPoll::Pending(back) => {
                    h = back;
                    assert!(
                        t.wait_ready(100).is_some(),
                        "a live HttpTransport always has a reactor on Linux"
                    );
                }
            }
        }
    };

    fetch_via_reactor(&t);
    assert!(
        t.registered_conns() <= 1,
        "at most the one awaited connection is registered"
    );

    // The reap must deregister before closing — afterwards no cell holds
    // a registration.
    assert!(t.close_idle() >= 1);
    assert_eq!(
        t.registered_conns(),
        0,
        "close_idle deregisters every reaped connection from the poller"
    );

    // The poller survives the reap: a fresh cell (likely reusing the
    // just-freed fd number) registers and wakes normally.
    fetch_via_reactor(&t);
    t.close_idle();
    assert_eq!(t.registered_conns(), 0);

    let stats = server.shutdown();
    assert_eq!(stats.responses_server_error, 0);
}

#[test]
fn stalls_park_in_the_client_reactor_never_in_blocking_completes() {
    // A served site that answers with real latency: right after a submit
    // burst there is nothing to harvest for ~15 ms, so the driver stalls
    // (every walker parked on an in-flight fetch). Each stall must
    // resolve as a "stall"/"wait" span — the driver parked in one
    // `epoll_wait` across its connections — and the blocking
    // `complete_query` fallback ("stall"/"force", the liveness escape
    // against a silent server) must never fire on a live wire.
    let db = vehicles_db(17);
    let schema = Arc::new(db.schema().clone());
    let k = db.result_limit();
    let site = Arc::new(LocalSite::new(db, Arc::clone(&schema)));
    let spec = ChaosSpec::parse("seed=3,latency=15").expect("latency-only chaos");
    let adversary = Arc::new(Adversary::new(site, spec));
    let server = HttpServer::serve(ServerConfig::default(), adversary).expect("bind loopback");

    let mut task = remote_task(&server, &schema, k);
    let mut trace = TraceLog::new();
    let report = RunPlan::target(16)
        .walkers(8)
        .seed(11)
        .slider(0.5)
        .driver(Driver::Coop { conns: Some(4) })
        .attach_trace(&mut trace)
        .run(std::slice::from_mut(&mut task));
    assert_eq!(report.site().stopped, StopReason::TargetReached);

    let waits: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| e.kind == "stall" && e.detail == "wait")
        .collect();
    let forces = trace
        .events()
        .iter()
        .filter(|e| e.kind == "stall" && e.detail == "force")
        .count();
    assert!(
        !waits.is_empty(),
        "a 15 ms-latency site stalls the driver at least once, and every \
         stall parks in the reactor"
    );
    assert_eq!(
        forces, 0,
        "the blocking completion fallback is reserved for a dead server"
    );
    // Each parked wait measured real elapsed time and a real connection.
    for w in &waits {
        assert!(w.dur_ms >= 1, "a wait span records its parked duration");
    }

    let stats = server.shutdown();
    assert_eq!(stats.responses_server_error, 0);
}
