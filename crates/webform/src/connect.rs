//! Connecting a [`SiteLocator`] to a ready-to-walk [`SiteTask`].
//!
//! A locator only *names* a site. The [`ConnectorRegistry`] turns the name
//! into a running stack: it builds (or dials, or loads) the wire, fetches
//! the site's landing page `/` through it, scrapes the page into a typed
//! schema plus the advertised `k` and count support ([`scrape_form_page`]),
//! and assembles a [`WebFormInterface`] configured entirely from what the
//! site *said* — zero schema flags, for every scheme:
//!
//! * `local:` — resolves the dataset in the workload registry, builds the
//!   [`HiddenDb`] from the locator's parameters ([`LocalParams`]: `n`,
//!   `k`, `seed`, `counts`, `budget`, `latency`, `jitter`, `l2`, `chaos`),
//!   reads the landing page straight off the in-process site, and serves
//!   it behind the one virtual wire, a [`ChaosTransport`]: `latency=` and
//!   `jitter=` shape a fault-free spec, and `chaos=<spec>` brings a seeded
//!   fault schedule;
//! * `http://` — dials the address with [`HttpTransport`];
//! * `replay:` — loads the JSONL tape into a [`ReplaySite`] behind the
//!   same fault-free wire; since the tape contains the recorded discovery
//!   page, replayed discovery is byte-identical to the original.
//!
//! Every connector returns the same concrete type, `SiteTask<BoxTransport>`
//! — which is what lets one [`RunPlan`](crate::RunPlan) drive a
//! *heterogeneous* fleet (simulated + live + replayed legs, each with its
//! own schema) through a single `run` call. Passing
//! [`ConnectOptions::record`] interposes a [`RecordingTransport`] under
//! the scraper, so the whole session — discovery included — lands on a
//! tape a later `replay:` locator can serve.

use std::fmt;
use std::sync::Arc;

use hdsampler_core::{L2Log, SiteFingerprint};
use hdsampler_hidden_db::{CountMode, HiddenDb};
use hdsampler_model::{FormInterface as _, InterfaceError};
use hdsampler_workload::{DbConfig, WorkloadSpec};

use crate::adapter::WebFormInterface;
use crate::aio::{AsyncTransport, ConnId, FetchHandle, FetchPoll};
use crate::chaos::{ChaosSpec, ChaosTransport, RetryPolicy};
use crate::driver::SiteTask;
use crate::form::WebForm;
use crate::httpc::HttpTransport;
use crate::locator::SiteLocator;
use crate::replay::{RecordingTransport, ReplaySite};
use crate::scrape::scrape_form_page;
use crate::transport::{Clocked, LatencyTransport, LocalSite, Transport};

/// The full wire contract a connected site rides on: both transport faces
/// plus a clock, behind one vtable.
trait DynTransport: Transport + AsyncTransport + Clocked + fmt::Debug {}

impl<T: Transport + AsyncTransport + Clocked + fmt::Debug> DynTransport for T {}

/// A type-erased wire. Whatever the connector built — virtual-latency
/// in-process site, live TCP, replayed tape, with or without a recorder —
/// this is the one concrete transport type a heterogeneous fleet shares.
pub struct BoxTransport(Box<dyn DynTransport>);

impl BoxTransport {
    /// Erase `transport`.
    pub fn new<T: Transport + AsyncTransport + Clocked + fmt::Debug + 'static>(
        transport: T,
    ) -> Self {
        BoxTransport(Box::new(transport))
    }
}

impl fmt::Debug for BoxTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BoxTransport({:?})", self.0)
    }
}

impl Transport for BoxTransport {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        self.0.fetch(path)
    }
    fn close_idle(&self) -> usize {
        self.0.close_idle()
    }
    fn backoff(&self, ms: u64) {
        self.0.backoff(ms)
    }
}

impl AsyncTransport for BoxTransport {
    fn connect(&self) -> ConnId {
        self.0.connect()
    }
    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        self.0.submit(conn, path)
    }
    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        self.0.poll(handle)
    }
    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        self.0.complete(handle)
    }
    fn cancel(&self, handle: FetchHandle) {
        self.0.cancel(handle)
    }
    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        self.0.observe_now(conn, now_ms)
    }
    fn virtual_elapsed_ms(&self) -> u64 {
        self.0.virtual_elapsed_ms()
    }
    fn wire_is_virtual(&self) -> bool {
        self.0.wire_is_virtual()
    }
    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        self.0.wait_ready(timeout_ms)
    }
}

impl Clocked for BoxTransport {
    fn elapsed_ms(&self) -> u64 {
        self.0.elapsed_ms()
    }
}

/// Options shared by every connector.
#[derive(Debug, Clone, Default)]
pub struct ConnectOptions {
    /// Record every exchange (discovery page included) to this JSONL tape,
    /// ready for a later `replay:` locator.
    pub record: Option<String>,
    /// Root directory for the persistent history cache (L2). Each site
    /// files its facts under `<root>/<fingerprint>/`, so many sites — and
    /// many *versions* of one site — share a root without mixing facts.
    /// A `local:` locator's `l2=` parameter overrides this per site.
    pub l2: Option<String>,
}

/// How a scheme connects: locator + options in, ready task out.
pub type ConnectFn = fn(&SiteLocator, &ConnectOptions) -> Result<SiteTask<BoxTransport>, String>;

/// One registered scheme.
#[derive(Clone, Copy)]
pub struct Connector {
    /// The locator scheme this connector serves (`local`, `http`,
    /// `replay`).
    pub scheme: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    connect: ConnectFn,
}

/// The scheme → connector table.
pub struct ConnectorRegistry {
    connectors: Vec<Connector>,
}

impl ConnectorRegistry {
    /// The standard registry: `local:`, `http://` and `replay:`.
    pub fn standard() -> Self {
        ConnectorRegistry {
            connectors: vec![
                Connector {
                    scheme: "local",
                    summary: "in-process simulated site over a named dataset",
                    connect: connect_local,
                },
                Connector {
                    scheme: "http",
                    summary: "live HTTP front door",
                    connect: connect_http,
                },
                Connector {
                    scheme: "replay",
                    summary: "recorded tape served offline",
                    connect: connect_replay,
                },
            ],
        }
    }

    /// The registered schemes, in listing order.
    pub fn schemes(&self) -> Vec<&'static str> {
        self.connectors.iter().map(|c| c.scheme).collect()
    }

    /// Resolve `locator` to a ready [`SiteTask`]: build/dial/load the
    /// wire, discover the schema off `/`, assemble the scraper.
    ///
    /// # Errors
    /// Anything the connector hit: unknown dataset, bad parameter,
    /// unreachable host, missing tape, unscrapable landing page.
    pub fn connect(
        &self,
        locator: &SiteLocator,
        opts: &ConnectOptions,
    ) -> Result<SiteTask<BoxTransport>, String> {
        let scheme = locator.scheme();
        let connector = self
            .connectors
            .iter()
            .find(|c| c.scheme == scheme)
            .ok_or_else(|| format!("no connector registered for scheme `{scheme}:`"))?;
        (connector.connect)(locator, opts)
    }
}

/// Erase a built wire, interposing a recorder when asked. `landing` is a
/// discovery page read off the site before the wire existed; it goes on
/// the tape first, so a later `replay:` discovers the same form.
fn erase<T: Transport + AsyncTransport + Clocked + fmt::Debug + 'static>(
    transport: T,
    opts: &ConnectOptions,
    landing: Option<&str>,
) -> Result<BoxTransport, String> {
    Ok(match &opts.record {
        Some(tape) => {
            let recorder = RecordingTransport::create(transport, tape)?;
            if let Some(page) = landing {
                recorder.record("/", &Ok(page.to_owned()));
            }
            BoxTransport::new(recorder)
        }
        None => BoxTransport::new(transport),
    })
}

/// Scrape-based schema discovery over the wire: fetch `/`, then assemble
/// the scraper from the page. The fetch rides out transient faults
/// (throttles, 503s, severed connections) the way the sampler's own
/// fetches do, so one unlucky request against an adversarial site does
/// not kill the connect.
fn discover(
    transport: BoxTransport,
    who: &str,
    opts: &ConnectOptions,
) -> Result<SiteTask<BoxTransport>, String> {
    let retry = RetryPolicy {
        max_retries: 8,
        ..RetryPolicy::default()
    };
    let mut attempt = 0u32;
    let page = loop {
        match transport.fetch("/") {
            Ok(page) => break page,
            Err(e) if e.is_transient() && attempt < retry.max_retries => {
                transport.backoff(retry.backoff_ms(attempt, e.retry_after_ms()));
                attempt += 1;
            }
            Err(e) => return Err(format!("{who}: schema discovery failed fetching `/`: {e}")),
        }
    };
    assemble(transport, &page, RetryPolicy::default(), who, opts)
}

/// Assemble a scraper configured entirely from a landing page — schema,
/// action, k, count support — retrying under `retry`, and attach the L2
/// log when asked.
fn assemble(
    transport: BoxTransport,
    page: &str,
    retry: RetryPolicy,
    who: &str,
    opts: &ConnectOptions,
) -> Result<SiteTask<BoxTransport>, String> {
    let found = scrape_form_page(page)
        .map_err(|e| format!("{who}: landing page is not a discoverable form: {e}"))?;
    let advertised = found
        .fingerprint
        .as_deref()
        .and_then(SiteFingerprint::parse);
    let form = WebForm::new(Arc::new(found.schema), found.action);
    let mut task = SiteTask::new(
        who,
        WebFormInterface::with_form(transport, form, found.k, found.supports_count)
            .with_retry(retry),
    );
    if let Some(root) = &opts.l2 {
        // Prefer the fingerprint the site advertised — it folds in the
        // dataset digest only the server side can see. Pages predating the
        // attribute (old tapes, foreign sites) fall back to a client-side
        // derivation over what discovery scraped.
        let fp = advertised.unwrap_or_else(|| {
            SiteFingerprint::derive(
                task.iface.schema(),
                task.iface.result_limit(),
                task.iface.supports_count(),
                None,
            )
        });
        let log = L2Log::open(std::path::Path::new(root), fp)
            .map_err(|e| format!("{who}: cannot open L2 history under `{root}`: {e}"))?;
        task = task.with_l2(Arc::new(log));
    }
    Ok(task)
}

/// The retry policy a `chaos=` leg runs under: patient enough to ride out
/// bursts at the default fault rates, still bounded so a dead site fails
/// instead of spinning.
const CHAOS_RETRY_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 12,
    base_backoff_ms: 25,
    max_backoff_ms: 2_000,
};

/// A `local:` locator's parameters, parsed and checked:
///
/// | parameter | meaning | default |
/// |---|---|---|
/// | `n` | tuples to simulate | 8000 |
/// | `k` | top-k display limit (at least 1) | 250 |
/// | `seed` | data seed (and the seed of the wire's jitter draws) | 2009 |
/// | `counts` | count banner: `absent`, `exact` or `noisy` | absent |
/// | `budget` | per-session query limit | none |
/// | `latency` | virtual service time per request, ms | 1 |
/// | `jitter` | extra service time per request, uniform in 0..=`jitter`, ms | 0 |
/// | `l2` | persistent history root for this leg | none |
/// | `chaos` | a [`ChaosSpec`] fault schedule for the wire; a spec without `latency` takes the leg's | none |
#[derive(Debug, Clone)]
pub struct LocalParams {
    /// Registry dataset name.
    pub dataset: String,
    /// The `chaos=` fault schedule, if any.
    pub chaos: Option<ChaosSpec>,
    n: usize,
    k: usize,
    seed: u64,
    counts: CountMode,
    budget: Option<u64>,
    latency: u64,
    jitter: u64,
    l2: Option<String>,
}

impl LocalParams {
    /// Parse a `local:` locator's parameters.
    ///
    /// # Errors
    /// A message naming the locator and the offending parameter (unknown
    /// key, unparsable value, `k=0`, `jitter=` beside `chaos=`), or a
    /// non-`local:` locator.
    pub fn parse(locator: &SiteLocator) -> Result<LocalParams, String> {
        let SiteLocator::Local { dataset, params } = locator else {
            return Err(format!(
                "{locator}: expected a local: locator, got {}",
                locator.scheme()
            ));
        };
        let who = locator.to_string();
        let mut out = LocalParams {
            dataset: dataset.clone(),
            n: 8_000,
            k: 250,
            seed: 2_009,
            counts: CountMode::Absent,
            budget: None,
            latency: 1,
            jitter: 0,
            l2: None,
            chaos: None,
        };
        for (key, value) in params {
            let parse_num = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{who}: parameter `{key}={value}` is not a valid {what}"))
            };
            match key.as_str() {
                "n" => out.n = parse_num("tuple count")? as usize,
                "k" => {
                    out.k = parse_num("top-k limit")? as usize;
                    if out.k == 0 {
                        return Err(format!(
                            "{who}: parameter `k=0`: a form must show at least one result (k >= 1)"
                        ));
                    }
                }
                "seed" => out.seed = parse_num("seed")?,
                "budget" => out.budget = Some(parse_num("query budget")?),
                "latency" => out.latency = parse_num("latency (ms)")?,
                "jitter" => out.jitter = parse_num("jitter (ms)")?,
                "l2" => out.l2 = Some(value.clone()),
                "chaos" => {
                    out.chaos = Some(
                        ChaosSpec::parse(value)
                            .map_err(|e| format!("{who}: parameter `chaos`: {e}"))?,
                    )
                }
                "counts" => {
                    out.counts = match value.as_str() {
                        "absent" => CountMode::Absent,
                        "exact" => CountMode::Exact,
                        "noisy" => CountMode::Noisy {
                            sigma: 0.15,
                            seed: out.seed,
                        },
                        other => {
                            return Err(format!(
                                "{who}: counts=`{other}` (valid: absent, exact, noisy)"
                            ))
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "{who}: unknown parameter `{other}` \
                         (valid: n, k, seed, counts, budget, latency, jitter, l2, chaos)"
                    ))
                }
            }
        }
        if out.jitter > 0 && out.chaos.is_some() {
            return Err(format!(
                "{who}: parameter `jitter=` shapes the plain wire; a `chaos=` \
                 spec carries its own `jitter`"
            ));
        }
        // `counts=noisy` before `seed=…` must still use the final seed.
        if let CountMode::Noisy { sigma, .. } = out.counts {
            out.counts = CountMode::Noisy {
                sigma,
                seed: out.seed,
            };
        }
        Ok(out)
    }

    /// Build the simulated hidden database these parameters describe.
    ///
    /// # Errors
    /// An unknown dataset, with the registry's nearest-match hint.
    pub fn build_db(&self) -> Result<HiddenDb, String> {
        let def = hdsampler_workload::resolve_dataset(&self.dataset)?;
        let mut db_cfg = DbConfig {
            count_mode: self.counts,
            ..DbConfig::no_counts().with_k(self.k)
        };
        if let Some(b) = self.budget {
            db_cfg = db_cfg.with_budget(b);
        }
        Ok(WorkloadSpec {
            data: def.data_spec(self.n, self.seed),
            db: db_cfg,
            seed: self.seed,
        }
        .build())
    }
}

fn connect_local(
    locator: &SiteLocator,
    opts: &ConnectOptions,
) -> Result<SiteTask<BoxTransport>, String> {
    let who = locator.to_string();
    let p = LocalParams::parse(locator)?;
    let db = p.build_db().map_err(|e| format!("{who}: {e}"))?;
    let schema = Arc::new(db.schema().clone());
    let site = LocalSite::new(db, schema);
    // Discovery reads the landing page straight off the in-process site,
    // before any wire exists: the wire's connection clocks and its seeded
    // jitter and fault streams start exactly where those of a site wired
    // up by hand would.
    let landing = site
        .fetch("/")
        .map_err(|e| format!("{who}: schema discovery failed fetching `/`: {e}"))?;
    // A locator-level `l2=` parameter overrides the shared option, so one
    // multi-site run can warm-start only the legs that want it.
    let opts = &match p.l2 {
        Some(root) => ConnectOptions {
            l2: Some(root),
            ..opts.clone()
        },
        None => opts.clone(),
    };
    // One wire for every leg: `latency=` and `jitter=` fill the spec a
    // `chaos=` parameter carries. Only a `chaos=` leg retries patiently.
    let retry = match p.chaos {
        Some(_) => CHAOS_RETRY_POLICY,
        None => RetryPolicy::default(),
    };
    let mut spec = p.chaos.unwrap_or(ChaosSpec {
        seed: p.seed,
        jitter_ms: p.jitter,
        ..ChaosSpec::default()
    });
    if spec.latency_ms == 0 {
        spec.latency_ms = p.latency;
    }
    let wire = erase(ChaosTransport::new(site, spec), opts, Some(&landing))?;
    assemble(wire, &landing, retry, &who, opts)
}

fn connect_http(
    locator: &SiteLocator,
    opts: &ConnectOptions,
) -> Result<SiteTask<BoxTransport>, String> {
    let SiteLocator::Http { addr } = locator else {
        return Err(format!("http connector got a {} locator", locator.scheme()));
    };
    let who = locator.to_string();
    discover(erase(HttpTransport::new(addr), opts, None)?, &who, opts)
}

fn connect_replay(
    locator: &SiteLocator,
    opts: &ConnectOptions,
) -> Result<SiteTask<BoxTransport>, String> {
    let SiteLocator::Replay { path } = locator else {
        return Err(format!(
            "replay connector got a {} locator",
            locator.scheme()
        ));
    };
    let who = locator.to_string();
    let site = ReplaySite::load(path)?;
    // A tape is a blocking-face site; the fault-free 1 ms virtual wire
    // grants it the async face and a clock, same as an in-process site.
    let wire = LatencyTransport::new(site, 1);
    discover(erase(wire, opts, None)?, &who, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect(s: &str) -> Result<SiteTask<BoxTransport>, String> {
        let loc = SiteLocator::parse(s)?;
        ConnectorRegistry::standard().connect(&loc, &ConnectOptions::default())
    }

    #[test]
    fn local_connector_discovers_everything_from_the_page() {
        let task = connect("local:boolean?n=200&k=20&seed=3&counts=exact").unwrap();
        assert_eq!(task.name, "local:boolean?n=200&k=20&seed=3&counts=exact");
        assert_eq!(task.iface.schema().arity(), 14, "m=14 Boolean dataset");
        assert_eq!(task.iface.result_limit(), 20, "k scraped off the page");
        assert!(
            task.iface.supports_count(),
            "count mode scraped off the page"
        );
        // The stack works end to end: the unconstrained query overflows.
        let resp = task
            .iface
            .execute(&hdsampler_model::ConjunctiveQuery::empty())
            .unwrap();
        assert_eq!(resp.rows.len(), 20);
    }

    #[test]
    fn local_defaults_mirror_the_cli() {
        let task = connect("local:vehicles-compact?n=300").unwrap();
        assert_eq!(task.iface.result_limit(), 250, "default k");
        assert!(!task.iface.supports_count(), "default counts=absent");
    }

    #[test]
    fn bad_locators_fail_with_the_registry_message() {
        let err = connect("local:vehicles-compat?n=100").unwrap_err();
        assert!(err.contains("unknown dataset"), "{err}");
        assert!(err.contains("did you mean `vehicles-compact`?"), "{err}");

        let err = connect("local:boolean?frobnicate=1").unwrap_err();
        assert!(err.contains("unknown parameter `frobnicate`"), "{err}");
        assert!(err.contains("valid: n, k, seed"), "{err}");

        let err = connect("local:boolean?n=many").unwrap_err();
        assert!(err.contains("n=many"), "{err}");

        let err = connect("local:boolean?counts=sometimes").unwrap_err();
        assert!(err.contains("valid: absent, exact, noisy"), "{err}");

        let err = connect("local:vehicles-compact?n=400&k=0").unwrap_err();
        assert!(err.contains("`k=0`"), "{err}");
        let err = connect("local:boolean?chaos=throttle=2").unwrap_err();
        assert!(err.contains("parameter `chaos`"), "{err}");
        let err = connect("local:boolean?jitter=5&chaos=fail=0.1").unwrap_err();
        assert!(err.contains("jitter"), "{err}");
        assert!(LocalParams::parse(&SiteLocator::parse("http://h:1").unwrap()).is_err());

        assert!(connect("replay:/nonexistent/tape.jsonl").is_err());
    }

    #[test]
    fn local_discovery_leaves_the_wire_untouched() {
        // Discovery reads `/` off the in-process site, so the wire's
        // clock starts at zero, as on a site wired up by hand.
        let task = connect("local:boolean?n=200&k=20&latency=40&jitter=10").unwrap();
        assert_eq!(task.iface.transport().elapsed_ms(), 0);
        task.iface
            .execute(&hdsampler_model::ConjunctiveQuery::empty())
            .unwrap();
        assert!((40..=50).contains(&task.iface.transport().elapsed_ms()));
    }

    #[test]
    fn adjacent_seeds_draw_unrelated_jitter() {
        // Regression: the jitter stream was a counter started at the
        // leg's `seed=`, so request n of leg `seed=s+1` billed what request
        // n+1 of leg `seed=s` billed. The draws now go through the spec's
        // mixed seed, so no small shift lines the two legs up.
        let billed = |seed: u64| -> Vec<u64> {
            let task = connect(&format!(
                "local:boolean?n=200&k=20&seed={seed}&latency=100&jitter=20"
            ))
            .unwrap();
            let wire = task.iface.transport();
            let conn = wire.connect();
            (0..64)
                .map(|_| {
                    let handle = wire.submit(conn, "/search");
                    let ms = handle.service_ms();
                    wire.complete(handle).unwrap();
                    ms
                })
                .collect()
        };
        let (a, b) = (billed(2009), billed(2010));
        for shift in 0..8 {
            assert_ne!(
                a[shift..],
                b[..64 - shift],
                "seed 2010 lags 2009 by {shift}"
            );
            assert_ne!(
                b[shift..],
                a[..64 - shift],
                "seed 2009 lags 2010 by {shift}"
            );
        }
        assert!(a.iter().all(|ms| (100..=120).contains(ms)), "{a:?}");
    }

    #[test]
    fn chaos_parameter_wraps_the_wire_and_takes_the_leg_latency() {
        // A spec without latency bills the leg's; the leg rides out faults
        // under the patient chaos retry policy.
        let quiet = connect("local:boolean?n=200&k=20&latency=40&chaos=seed=3").unwrap();
        assert_eq!(quiet.iface.retry_policy(), CHAOS_RETRY_POLICY);
        quiet
            .iface
            .execute(&hdsampler_model::ConjunctiveQuery::empty())
            .unwrap();
        assert_eq!(quiet.iface.transport().elapsed_ms(), 40);

        let faulty = connect("local:boolean?n=200&k=20&chaos=seed=3,latency=7,fail=0.5").unwrap();
        for _ in 0..4 {
            faulty
                .iface
                .execute(&hdsampler_model::ConjunctiveQuery::empty())
                .unwrap();
        }
        assert!(
            faulty.iface.retries() > 0,
            "the faults fired and were retried"
        );
        // Without chaos the wire keeps the default policy.
        let plain = connect("local:boolean?n=200&k=20").unwrap();
        assert_eq!(plain.iface.retry_policy(), RetryPolicy::default());
    }

    #[test]
    fn record_then_replay_locators_round_trip() {
        let tape =
            std::env::temp_dir().join(format!("hds_connect_tape_{}.jsonl", std::process::id()));
        let tape_str = tape.to_str().unwrap().to_string();

        // Record a session against a local site: discovery plus two pages.
        let loc = SiteLocator::parse("local:boolean?n=120&k=10&seed=5").unwrap();
        let recorded = ConnectorRegistry::standard()
            .connect(
                &loc,
                &ConnectOptions {
                    record: Some(tape_str.clone()),
                    l2: None,
                },
            )
            .unwrap();
        let q = hdsampler_model::ConjunctiveQuery::from_named(
            &recorded.iface.schema().clone(),
            [("a1", "yes")],
        )
        .unwrap();
        let live_root = recorded
            .iface
            .execute(&hdsampler_model::ConjunctiveQuery::empty())
            .unwrap();
        let live_q = recorded.iface.execute(&q).unwrap();

        // Replay it with zero knowledge beyond the tape path: discovery
        // comes off the tape, and the pages come back byte-identical.
        let replayed = connect(&format!("replay:{tape_str}")).unwrap();
        assert_eq!(replayed.iface.schema(), recorded.iface.schema());
        assert_eq!(replayed.iface.result_limit(), 10);
        assert_eq!(
            replayed
                .iface
                .execute(&hdsampler_model::ConjunctiveQuery::empty())
                .unwrap(),
            live_root
        );
        assert_eq!(replayed.iface.execute(&q).unwrap(), live_q);
        std::fs::remove_file(&tape).ok();
    }

    #[test]
    fn standard_registry_lists_its_schemes() {
        assert_eq!(
            ConnectorRegistry::standard().schemes(),
            vec!["local", "http", "replay"]
        );
    }
}
