//! Hand-rolled argument parsing (no external parser dependencies).

use hdsampler_webform::ChaosSpec;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
HDSampler — sampling hidden databases behind top-k web forms

USAGE:
  hdsampler <COMMAND> [OPTIONS]

COMMANDS:
  describe    show the simulated site's form (attributes and domains)
  sample      run an incremental sampling session and print histograms
  aggregate   estimate aggregates (proportion / count / avg / sum)
  validate    compare sampled marginals against the simulation's truth
  multi-site  drive a fleet of sites concurrently (virtual or real wire)
  serve       put the simulated site behind a real HTTP front door
  trace       analyze a trace journal or follow a live /events stream
  cache       inspect or maintain a persistent L2 history directory

COMMON OPTIONS:
  --source <name>      dataset registry name: vehicles-compact, vehicles-full,
                       boolean, boolean-correlated (default vehicles-compact)
  --dataset <...>      alias for --source
  --n <N>              number of tuples to simulate        (default 8000)
  --k <K>              top-k display limit                 (default 250)
  --seed <S>           data + sampler seed                 (default 2009)
  --samples <S>        sample target                       (default 200)
  --slider <0..1>      efficiency/skew slider              (default 0.0)
  --bind attr=label    pin a binding (repeatable; Figure 3 style scoping)
  --budget <Q>         per-session query limit
  --counts <absent|exact|noisy>  count banner mode         (default absent)

OBSERVABILITY (sample, multi-site, serve):
  --trace <path>       journal trace events to JSONL — sample/multi-site:
                       the run's full span stream (cache, wire, retry,
                       stall, steal, sample); serve: the per-request log,
                       written at graceful shutdown.
                       Seeded virtual-wire journals replay bit-identically
  --metrics <value>    sample/multi-site: loopback port for a live
                       telemetry server exposing /metrics + /events while
                       the run progresses (0 = ephemeral, address printed);
                       serve: file path receiving the final Prometheus
                       exposition at shutdown (the live /metrics endpoint
                       is always on)

sample:
  <locator>            sample any site named by one locator string instead of
                       the flag-built in-process site:
                         local:<dataset>[?n=..&k=..&seed=..&counts=..&budget=..&latency=..&jitter=..]
                         http://host:port     (schema discovered by scraping /)
                         replay:<tape.jsonl>  (recorded tape served offline — no server)
  --record <path>      write every exchange to a JSONL tape; replay it later
                       with `sample replay:<path>` (no server needed)
  --l2 <dir>           persist learned facts under <dir>/<site fingerprint>/
                       (JSONL fact log); a second run against the same site
                       version warm-starts from disk instead of the wire
                       (also a multi-site flag; per-site `l2=` locator
                       parameters win over it)
  --histogram <attr>   attribute(s) to display (repeatable; default: first)
  --watch              re-render live histograms from streaming snapshots
                       every 25 samples while the session runs
  --remote <addr>      sample a live `hdsampler serve` at host:port — sugar
                       for the `http://<addr>` locator (the schema is
                       discovered by scraping /, never configured)
  --walkers <W>        walker machines, multiplexed on one thread (default 1)
  --conns <C>          wire connections the walkers share (default: one per
                       walker; up to 64 on a live http:// server)

aggregate:
  --proportion attr=label   estimate a proportion (repeatable)
  --avg <measure>           estimate an average   (repeatable)

validate:
  --attr <attr>        attribute to validate (default: first)

multi-site:
  --site <locator>     add one fleet leg by locator (repeatable) — mixes
                       local:, http:// and replay: legs in a single run;
                       replaces --sites/--latency/--jitter/--chaos/--remote
  --sites <S>          number of simulated sites                (default 4)
  --walkers <W>        walker machines per site                 (default 2)
  --latency <MS[,MS,...]>  per-request latency in ms; a comma list assigns
                       site i the i-th value, cycling           (default 100)
  --jitter <MS>        ± uniform jitter around each site's latency (default 0)
  --remote <addr[,addr,...]>  drive live servers (one site per address;
                       latency/jitter flags do not apply — the wire is real)
  --watch              re-render fleet-wide live histograms while the run
                       progresses
  --conns <C>          wire connections per site the walkers share
                       (default: one per walker on the virtual wire, up to
                       64 on live servers)
  --chaos <spec>       make every simulated site adversarial: seeded faults
                       on the virtual wire (not valid with --remote — serve
                       the adversary with `serve --chaos` instead), e.g.
                       seed=7,latency=40,throttle=0.2,retry_after=250,
                       fail=0.1,drop=0.05,slow=400x50,jitter=30,count_noise=0.3
  --steal              when a site finishes, reassign its walkers to the
                       hungriest site still sampling
  (one thread multiplexes every site's walkers; --samples is the per-site
  target, --budget the per-site query cap)

serve:
  --port <P>           TCP port on 127.0.0.1 (default 8000; 0 = ephemeral)
  --reactor            event-driven serve mode: epoll readiness loops, one
                       per core, multiplexing every connection (default)
  --pool               thread-per-connection serve mode: a bounded worker
                       pool of --workers threads (at most that many
                       keep-alive connections at once)
  --workers <W>        connection worker threads with --pool     (default 4)
  --serve-for <SECS>   shut down gracefully after SECS (default: run until
                       killed)
  --max-conns <N>      admission cap: connections past N concurrently open
                       get `503` + `Retry-After: 1` and are closed
                       (default 0 = uncapped)
  --chaos <spec>       serve through a fault-injecting adversary (grammar as
                       under multi-site; sleeps are real wall-clock here)

trace:
  report <journal.jsonl>   per-stage latency breakdown (queue/service/
                           backoff), cache hit rates and the critical-path
                           summary of a --trace journal
  watch <host:port>        follow a live server's /events stream — the
                           remote face of --watch, printing the streaming
                           progress line for every accepted-sample event

cache:
  stats --l2 <dir>         per-site record/segment/byte counts of a
                           persistent history directory
  compact --l2 <dir>       fold every site's segments into one (dedup by
                           query, newest fact wins)
  clear --l2 <dir>         delete all persisted facts (keeps the directory)
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Which subcommand to run.
    pub command: Command,
    /// Shared options.
    pub common: Common,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Show the form definition.
    Describe,
    /// Incremental sampling with live histograms.
    Sample {
        /// Positional site locator (`local:…`, `http://…`, `replay:…`).
        /// `None` falls back to the flag-built in-process site (or
        /// `--remote`, which is sugar for an `http://` locator).
        locator: Option<String>,
        /// Attributes to display as histograms.
        histograms: Vec<String>,
        /// Record every exchange to this JSONL tape for `replay:`.
        record: Option<String>,
        /// Walker machines multiplexed on one thread.
        walkers: usize,
        /// Wire connections the walkers share (default: one per walker,
        /// or a pipelined handful on a live server).
        conns: Option<usize>,
        /// Re-render live histograms from streaming snapshots mid-run.
        watch: bool,
        /// Journal the run's trace events to this JSONL path.
        trace: Option<String>,
        /// Loopback port for a live telemetry server (`/metrics` +
        /// `/events`) over the run.
        metrics: Option<String>,
        /// Root directory of the persistent L2 fact log (facts learned
        /// on the wire persist; later runs warm-start from disk).
        l2: Option<String>,
    },
    /// Aggregate console.
    Aggregate {
        /// `attr=label` proportion targets.
        proportions: Vec<(String, String)>,
        /// Measures to average.
        avgs: Vec<String>,
    },
    /// Truth comparison.
    Validate {
        /// Attribute to validate.
        attr: Option<String>,
    },
    /// Fleet driving: S sites × W walkers over the virtual or real wire.
    MultiSite {
        /// Heterogeneous fleet legs by locator (`--site`, repeatable).
        /// Non-empty supersedes `sites`/`latencies_ms`/`jitter_ms`.
        site_locators: Vec<String>,
        /// Number of simulated sites.
        sites: usize,
        /// Walker machines per site.
        walkers: usize,
        /// Per-site latency list in milliseconds (site i uses entry
        /// `i % len`).
        latencies_ms: Vec<u64>,
        /// ± uniform jitter half-width around each site's latency.
        jitter_ms: u64,
        /// Wire connections per site the walkers share. Defaults to one
        /// per walker on the virtual wire and a pipelined handful on live
        /// servers.
        conns: Option<usize>,
        /// Re-render fleet-wide live histograms mid-run.
        watch: bool,
        /// Seeded fault schedule wrapped around every simulated site's
        /// wire (never valid with `--remote`).
        chaos: Option<ChaosSpec>,
        /// Reassign finished sites' walkers to the hungriest site still
        /// sampling.
        steal: bool,
        /// Journal the run's trace events to this JSONL path.
        trace: Option<String>,
        /// Loopback port for a live telemetry server (`/metrics` +
        /// `/events`) over the run.
        metrics: Option<String>,
        /// Root directory of the persistent L2 fact log shared by every
        /// leg (per-site `l2=` locator parameters win over it).
        l2: Option<String>,
    },
    /// Serve the simulated site over real HTTP.
    Serve {
        /// Port on 127.0.0.1 (0 picks an ephemeral port).
        port: u16,
        /// Serve through the bounded thread-per-connection pool instead
        /// of the default epoll reactor (`--pool`).
        pool: bool,
        /// Connection worker threads (pool mode).
        workers: usize,
        /// Graceful shutdown after this many seconds (None: run until
        /// killed).
        serve_for: Option<u64>,
        /// Seeded fault schedule the served site hides behind.
        chaos: Option<ChaosSpec>,
        /// Journal the per-request log to this JSONL path at shutdown.
        trace: Option<String>,
        /// Write the final `/metrics` exposition to this file at shutdown.
        metrics: Option<String>,
        /// Admission cap: connections past this many concurrently open
        /// get `503` + `Retry-After` (0 = uncapped).
        max_conns: usize,
    },
    /// Observability tooling over journals and live event streams.
    Trace {
        /// What to do.
        action: TraceAction,
    },
    /// Maintenance of a persistent L2 history directory.
    Cache {
        /// What to do.
        action: CacheAction,
        /// The cache root (`--l2 <dir>`).
        dir: String,
    },
}

/// The `cache` subcommand's actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Per-site record/segment/byte counts.
    Stats,
    /// Fold every site's segments into one, deduplicating by query.
    Compact,
    /// Delete all persisted facts.
    Clear,
}

/// The `trace` subcommand's actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceAction {
    /// Summarize a `--trace` journal: per-stage latency and critical path.
    Report {
        /// Path to the JSONL journal.
        journal: String,
    },
    /// Follow a live server's `/events` stream (`--watch`'s remote mode).
    Watch {
        /// `host:port` of a running `hdsampler serve` or `--metrics` plane.
        addr: String,
    },
}

/// Options shared by all subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Common {
    /// Data source name.
    pub source: String,
    /// Simulated tuple count.
    pub n: usize,
    /// Top-k limit.
    pub k: usize,
    /// Seed.
    pub seed: u64,
    /// Sample target.
    pub samples: usize,
    /// Slider position.
    pub slider: f64,
    /// Pinned bindings.
    pub binds: Vec<(String, String)>,
    /// Optional query budget.
    pub budget: Option<u64>,
    /// Count banner mode.
    pub counts: String,
    /// Live server address(es) — `host:port`, comma-separated for
    /// multi-site — instead of the in-process wire.
    pub remote: Option<String>,
}

impl Default for Common {
    fn default() -> Self {
        Common {
            source: "vehicles-compact".into(),
            n: 8_000,
            k: 250,
            seed: 2009,
            samples: 200,
            slider: 0.0,
            binds: Vec::new(),
            budget: None,
            counts: "absent".into(),
            remote: None,
        }
    }
}

fn split_kv(s: &str, flag: &str) -> Result<(String, String), String> {
    s.split_once('=')
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .ok_or_else(|| format!("{flag} expects attr=label, got `{s}`"))
}

/// Parse an argv slice (without the program name).
pub fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut it = argv.iter().peekable();
    let command_word = it.next().ok_or("missing command")?;
    if command_word == "--help" || command_word == "-h" {
        return Err("help requested".into());
    }

    let mut common = Common::default();
    let mut histograms = Vec::new();
    let mut proportions = Vec::new();
    let mut avgs = Vec::new();
    let mut validate_attr = None;
    let mut sites = 4usize;
    let mut walkers = None;
    let mut latencies_ms = vec![100u64];
    let mut jitter_ms = 0u64;
    let mut port = 8000u16;
    let mut serve_workers = 4usize;
    let mut serve_for = None;
    let mut serve_pool = false;
    let mut serve_reactor = false;
    let mut conns = None;
    let mut watch = false;
    let mut chaos = None;
    let mut steal = false;
    let mut locator = None;
    let mut site_locators: Vec<String> = Vec::new();
    let mut record = None;
    let mut trace_path = None;
    let mut metrics = None;
    let mut trace_words: Vec<String> = Vec::new();
    let mut cache_word: Option<String> = None;
    let mut l2 = None;
    let mut max_conns = 0usize;
    let mut sites_set = false;
    let mut latency_set = false;
    let mut jitter_set = false;

    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--source" => common.source = value("--source")?.clone(),
            "--dataset" => common.source = value("--dataset")?.clone(),
            "--n" => common.n = value("--n")?.parse().map_err(|_| "--n: not a number")?,
            "--k" => common.k = value("--k")?.parse().map_err(|_| "--k: not a number")?,
            "--seed" => {
                common.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not a number")?
            }
            "--samples" => {
                common.samples = value("--samples")?
                    .parse()
                    .map_err(|_| "--samples: not a number")?
            }
            "--slider" => {
                common.slider = value("--slider")?
                    .parse()
                    .map_err(|_| "--slider: not a number")?;
                if !(0.0..=1.0).contains(&common.slider) {
                    return Err("--slider must lie in [0, 1]".into());
                }
            }
            "--bind" => common.binds.push(split_kv(value("--bind")?, "--bind")?),
            "--budget" => {
                common.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|_| "--budget: not a number")?,
                )
            }
            "--counts" => {
                let v = value("--counts")?.clone();
                if !["absent", "exact", "noisy"].contains(&v.as_str()) {
                    return Err(format!("--counts: unknown mode `{v}`"));
                }
                common.counts = v;
            }
            "--sites" => {
                sites_set = true;
                sites = value("--sites")?
                    .parse()
                    .map_err(|_| "--sites: not a number")?;
                if sites == 0 {
                    return Err("--sites must be at least 1".into());
                }
            }
            "--walkers" => {
                let w: usize = value("--walkers")?
                    .parse()
                    .map_err(|_| "--walkers: not a number")?;
                if w == 0 {
                    return Err("--walkers must be at least 1".into());
                }
                walkers = Some(w);
            }
            "--latency" => {
                latency_set = true;
                latencies_ms = value("--latency")?
                    .split(',')
                    .map(|part| part.trim().parse::<u64>())
                    .collect::<Result<Vec<u64>, _>>()
                    .map_err(|_| "--latency: expects ms or a comma list of ms")?;
                if latencies_ms.is_empty() || latencies_ms.contains(&0) {
                    return Err(
                        "--latency entries must be at least 1 ms (the wire model bills round trips)"
                            .into(),
                    );
                }
            }
            "--jitter" => {
                jitter_set = true;
                jitter_ms = value("--jitter")?
                    .parse()
                    .map_err(|_| "--jitter: not a number")?
            }
            "--remote" => common.remote = Some(value("--remote")?.clone()),
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|_| "--port: not a port number")?
            }
            "--workers" => {
                serve_workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers: not a number")?;
                if serve_workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--pool" => serve_pool = true,
            "--reactor" => serve_reactor = true,
            "--serve-for" => {
                serve_for = Some(
                    value("--serve-for")?
                        .parse()
                        .map_err(|_| "--serve-for: not a number of seconds")?,
                )
            }
            "--conns" => {
                let c: usize = value("--conns")?
                    .parse()
                    .map_err(|_| "--conns: not a number")?;
                if c == 0 {
                    return Err("--conns must be at least 1".into());
                }
                conns = Some(c);
            }
            "--watch" => watch = true,
            "--chaos" => chaos = Some(ChaosSpec::parse(value("--chaos")?)?),
            "--steal" => steal = true,
            "--histogram" => histograms.push(value("--histogram")?.clone()),
            "--proportion" => proportions.push(split_kv(value("--proportion")?, "--proportion")?),
            "--avg" => avgs.push(value("--avg")?.clone()),
            "--attr" => validate_attr = Some(value("--attr")?.clone()),
            "--site" => site_locators.push(value("--site")?.clone()),
            "--record" => record = Some(value("--record")?.clone()),
            "--l2" => l2 = Some(value("--l2")?.clone()),
            "--max-conns" => {
                max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|_| "--max-conns: not a number")?
            }
            "--trace" => trace_path = Some(value("--trace")?.clone()),
            "--metrics" => metrics = Some(value("--metrics")?.clone()),
            other if !other.starts_with('-') => {
                // A bare word is `sample`'s positional locator or one of
                // `trace`'s action words — nothing else takes positionals.
                if command_word == "trace" {
                    if trace_words.len() == 2 {
                        return Err(format!(
                            "unexpected argument `{other}` (trace takes an action \
                             and one operand)"
                        ));
                    }
                    trace_words.push(other.to_string());
                    continue;
                }
                if command_word == "cache" {
                    if cache_word.is_some() {
                        return Err(format!(
                            "unexpected argument `{other}` (cache takes one action)"
                        ));
                    }
                    cache_word = Some(other.to_string());
                    continue;
                }
                if command_word != "sample" {
                    return Err(format!(
                        "unexpected argument `{other}` (only `sample` takes a \
                         positional locator)"
                    ));
                }
                if locator.is_some() {
                    return Err(format!("unexpected second locator `{other}`"));
                }
                locator = Some(other.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    // The walker flags belong to the sampling commands; anywhere else
    // they would parse and then be silently ignored — reject instead.
    if walkers.is_some() && !matches!(command_word.as_str(), "sample" | "multi-site") {
        return Err(format!("--walkers does not apply to `{command_word}`"));
    }
    if conns.is_some() && !matches!(command_word.as_str(), "sample" | "multi-site") {
        return Err(format!("--conns does not apply to `{command_word}`"));
    }
    if watch && !matches!(command_word.as_str(), "sample" | "multi-site") {
        return Err(format!("--watch does not apply to `{command_word}`"));
    }
    if chaos.is_some() && !matches!(command_word.as_str(), "multi-site" | "serve") {
        return Err(format!("--chaos does not apply to `{command_word}`"));
    }
    if steal && command_word != "multi-site" {
        return Err(format!("--steal does not apply to `{command_word}`"));
    }
    if !site_locators.is_empty() && command_word != "multi-site" {
        return Err("--site is a `multi-site` flag (sample one site by passing \
                    the locator positionally: `sample <locator>`)"
            .into());
    }
    if record.is_some() && command_word != "sample" {
        return Err(format!(
            "--record does not apply to `{command_word}` (record one site's \
             exchanges with `sample <locator> --record <path>`)"
        ));
    }
    if trace_path.is_some() && !matches!(command_word.as_str(), "sample" | "multi-site" | "serve") {
        return Err(format!("--trace does not apply to `{command_word}`"));
    }
    if metrics.is_some() && !matches!(command_word.as_str(), "sample" | "multi-site" | "serve") {
        return Err(format!("--metrics does not apply to `{command_word}`"));
    }
    if l2.is_some() && !matches!(command_word.as_str(), "sample" | "multi-site" | "cache") {
        return Err(format!("--l2 does not apply to `{command_word}`"));
    }
    if max_conns != 0 && command_word != "serve" {
        return Err(format!("--max-conns does not apply to `{command_word}`"));
    }
    if (serve_pool || serve_reactor) && command_word != "serve" {
        return Err(format!(
            "--{} does not apply to `{command_word}`",
            if serve_pool { "pool" } else { "reactor" }
        ));
    }
    if serve_pool && serve_reactor {
        return Err("--pool and --reactor name opposite serve modes; pick one".into());
    }

    let command = match command_word.as_str() {
        "describe" => Command::Describe,
        "sample" => {
            if locator.is_some() && common.remote.is_some() {
                return Err("pass a locator or --remote, not both (a locator \
                            already names the wire; --remote <addr> is sugar \
                            for `sample http://<addr>`)"
                    .into());
            }
            Command::Sample {
                locator,
                histograms,
                record,
                walkers: walkers.unwrap_or(1),
                conns,
                watch,
                trace: trace_path,
                metrics,
                l2,
            }
        }
        "aggregate" => Command::Aggregate { proportions, avgs },
        "validate" => Command::Validate {
            attr: validate_attr,
        },
        "multi-site" => {
            if !site_locators.is_empty() {
                // A locator list *is* the fleet: every flag that sizes or
                // decorates the simulated fleet contradicts it.
                if sites_set {
                    return Err("--sites counts simulated sites; with --site, \
                                the locator list is the fleet"
                        .into());
                }
                if latency_set || jitter_set {
                    return Err("--latency/--jitter configure simulated wires; \
                                bake them into the locator instead \
                                (local:<dataset>?latency=..&jitter=..)"
                        .into());
                }
                if common.remote.is_some() {
                    return Err("--remote and --site both name fleet legs; use --site \
                         http://<addr>"
                        .into());
                }
                if chaos.is_some() {
                    return Err("--chaos wraps the flag-built simulated fleet \
                                and does not apply to --site locator legs"
                        .into());
                }
                if watch {
                    return Err("--watch needs one fleet-wide schema; --site \
                                legs have per-site schemas"
                        .into());
                }
            }
            if chaos.is_some() && common.remote.is_some() {
                return Err("--chaos wraps the simulated wire and cannot apply to \
                            --remote servers; serve the adversary itself with \
                            `hdsampler serve --chaos ...`"
                    .into());
            }
            Command::MultiSite {
                site_locators,
                sites,
                walkers: walkers.unwrap_or(2),
                latencies_ms,
                jitter_ms,
                conns,
                watch,
                chaos,
                steal,
                trace: trace_path,
                metrics,
                l2,
            }
        }
        "serve" => Command::Serve {
            port,
            pool: serve_pool,
            workers: serve_workers,
            serve_for,
            chaos,
            trace: trace_path,
            metrics,
            max_conns,
        },
        "trace" => {
            let mut words = trace_words.into_iter();
            let action = match (words.next(), words.next()) {
                (Some(a), Some(operand)) => match a.as_str() {
                    "report" => TraceAction::Report { journal: operand },
                    "watch" => TraceAction::Watch { addr: operand },
                    other => {
                        return Err(format!(
                            "unknown trace action `{other}` (expected `report` or `watch`)"
                        ))
                    }
                },
                (Some(a), None) => {
                    return Err(match a.as_str() {
                        "report" => "trace report needs a journal path \
                                     (`trace report <journal.jsonl>`)"
                            .into(),
                        "watch" => {
                            "trace watch needs an address (`trace watch <host:port>`)".into()
                        }
                        other => {
                            format!("unknown trace action `{other}` (expected `report` or `watch`)")
                        }
                    })
                }
                (None, _) => {
                    return Err("trace needs an action: `trace report <journal.jsonl>` \
                                or `trace watch <host:port>`"
                        .into())
                }
            };
            Command::Trace { action }
        }
        "cache" => {
            let action = match cache_word.as_deref() {
                Some("stats") => CacheAction::Stats,
                Some("compact") => CacheAction::Compact,
                Some("clear") => CacheAction::Clear,
                Some(other) => {
                    return Err(format!(
                        "unknown cache action `{other}` (expected `stats`, `compact` or `clear`)"
                    ))
                }
                None => {
                    return Err(
                        "cache needs an action: `cache stats|compact|clear --l2 <dir>`".into(),
                    )
                }
            };
            let dir = l2.ok_or("cache needs the history directory: --l2 <dir>")?;
            Command::Cache { action, dir }
        }
        other => return Err(format!("unknown command `{other}`")),
    };
    Ok(Cli { command, common })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_sample_with_everything() {
        let cli = parse(&argv(&[
            "sample",
            "--source",
            "vehicles-full",
            "--n",
            "1000",
            "--k",
            "50",
            "--seed",
            "7",
            "--samples",
            "99",
            "--slider",
            "0.5",
            "--bind",
            "condition=used",
            "--bind",
            "make=Toyota",
            "--budget",
            "5000",
            "--histogram",
            "make",
            "--histogram",
            "year",
        ]))
        .unwrap();
        assert_eq!(cli.common.source, "vehicles-full");
        assert_eq!(cli.common.n, 1000);
        assert_eq!(cli.common.k, 50);
        assert_eq!(cli.common.samples, 99);
        assert_eq!(cli.common.slider, 0.5);
        assert_eq!(cli.common.binds.len(), 2);
        assert_eq!(cli.common.budget, Some(5000));
        assert_eq!(
            cli.command,
            Command::Sample {
                locator: None,
                histograms: vec!["make".into(), "year".into()],
                record: None,
                walkers: 1,
                conns: None,
                watch: false,
                trace: None,
                metrics: None,
                l2: None,
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let cli = parse(&argv(&["describe"])).unwrap();
        assert_eq!(cli.common, Common::default());
        assert_eq!(cli.command, Command::Describe);
    }

    #[test]
    fn aggregate_flags() {
        let cli = parse(&argv(&[
            "aggregate",
            "--proportion",
            "make=Toyota",
            "--avg",
            "price_usd",
        ]))
        .unwrap();
        match cli.command {
            Command::Aggregate { proportions, avgs } => {
                assert_eq!(
                    proportions,
                    vec![("make".to_string(), "Toyota".to_string())]
                );
                assert_eq!(avgs, vec!["price_usd".to_string()]);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn multi_site_flags() {
        let cli = parse(&argv(&[
            "multi-site",
            "--sites",
            "16",
            "--walkers",
            "4",
            "--latency",
            "150",
            "--conns",
            "2",
            "--samples",
            "80",
            "--budget",
            "2000",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::MultiSite {
                site_locators: vec![],
                sites: 16,
                walkers: 4,
                latencies_ms: vec![150],
                jitter_ms: 0,
                conns: Some(2),
                watch: false,
                chaos: None,
                steal: false,
                trace: None,
                metrics: None,
                l2: None,
            }
        );
        assert_eq!(cli.common.samples, 80);
        assert_eq!(cli.common.budget, Some(2000));

        let defaults = parse(&argv(&["multi-site"])).unwrap();
        assert_eq!(
            defaults.command,
            Command::MultiSite {
                site_locators: vec![],
                sites: 4,
                walkers: 2,
                latencies_ms: vec![100],
                jitter_ms: 0,
                conns: None,
                watch: false,
                chaos: None,
                steal: false,
                trace: None,
                metrics: None,
                l2: None,
            }
        );
        assert!(parse(&argv(&["multi-site", "--sites", "0"])).is_err());
        assert!(parse(&argv(&["multi-site", "--walkers", "0"])).is_err());
        assert!(parse(&argv(&["multi-site", "--latency", "0"])).is_err());
        assert!(parse(&argv(&["multi-site", "--conns", "0"])).is_err());
        assert!(parse(&argv(&["multi-site", "--driver", "coop"])).is_err());
    }

    #[test]
    fn multi_site_heterogeneous_latency_and_jitter() {
        let cli = parse(&argv(&[
            "multi-site",
            "--latency",
            "50,100, 250",
            "--jitter",
            "20",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::MultiSite {
                site_locators: vec![],
                sites: 4,
                walkers: 2,
                latencies_ms: vec![50, 100, 250],
                jitter_ms: 20,
                conns: None,
                watch: false,
                chaos: None,
                steal: false,
                trace: None,
                metrics: None,
                l2: None,
            }
        );
        assert!(parse(&argv(&["multi-site", "--latency", "50,0,100"])).is_err());
        assert!(parse(&argv(&["multi-site", "--latency", ""])).is_err());
        assert!(parse(&argv(&["multi-site", "--latency", "50,,100"])).is_err());
    }

    #[test]
    fn serve_and_remote_flags() {
        let cli = parse(&argv(&[
            "serve",
            "--port",
            "9090",
            "--workers",
            "8",
            "--serve-for",
            "30",
            "--dataset",
            "boolean",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                port: 9090,
                pool: false,
                workers: 8,
                serve_for: Some(30),
                chaos: None,
                trace: None,
                metrics: None,
                max_conns: 0,
            }
        );
        assert_eq!(cli.common.source, "boolean", "--dataset aliases --source");

        let defaults = parse(&argv(&["serve"])).unwrap();
        assert_eq!(
            defaults.command,
            Command::Serve {
                port: 8000,
                pool: false,
                workers: 4,
                serve_for: None,
                chaos: None,
                trace: None,
                metrics: None,
                max_conns: 0,
            }
        );
        assert!(parse(&argv(&["serve", "--workers", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--port", "99999"])).is_err());

        // Serve modes: the reactor is the default, `--pool` opts out, and
        // the two flags are mutually exclusive and serve-only.
        assert!(matches!(
            parse(&argv(&["serve", "--pool"])).unwrap().command,
            Command::Serve { pool: true, .. }
        ));
        assert!(matches!(
            parse(&argv(&["serve", "--reactor"])).unwrap().command,
            Command::Serve { pool: false, .. }
        ));
        assert!(parse(&argv(&["serve", "--pool", "--reactor"])).is_err());
        assert!(parse(&argv(&["sample", "--pool"])).is_err());
        assert!(parse(&argv(&["describe", "--reactor"])).is_err());

        let remote = parse(&argv(&["sample", "--remote", "127.0.0.1:9090"])).unwrap();
        assert_eq!(remote.common.remote.as_deref(), Some("127.0.0.1:9090"));
        let fleet = parse(&argv(&["multi-site", "--remote", "h1:1,h2:2"])).unwrap();
        assert_eq!(fleet.common.remote.as_deref(), Some("h1:1,h2:2"));
    }

    #[test]
    fn walker_flags() {
        let cli = parse(&argv(&[
            "sample",
            "--remote",
            "127.0.0.1:9090",
            "--walkers",
            "64",
            "--conns",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Sample {
                locator: None,
                histograms: vec![],
                record: None,
                walkers: 64,
                conns: Some(4),
                watch: false,
                trace: None,
                metrics: None,
                l2: None,
            }
        );
        // One spelling on both commands, and no wire is needed to run
        // several walkers.
        let fleet = parse(&argv(&["multi-site", "--walkers", "16", "--conns", "8"])).unwrap();
        assert!(matches!(
            fleet.command,
            Command::MultiSite {
                walkers: 16,
                conns: Some(8),
                ..
            }
        ));
        assert!(matches!(
            parse(&argv(&["sample", "--walkers", "4"])).unwrap().command,
            Command::Sample { walkers: 4, .. }
        ));
        assert!(parse(&argv(&["sample", "--walkers", "0"])).is_err());
        assert!(parse(&argv(&["sample", "--conns", "0"])).is_err());
        // Walker flags are never silently ignored by other commands, and
        // the renamed spellings are gone.
        assert!(parse(&argv(&["serve", "--walkers", "2"])).is_err());
        assert!(parse(&argv(&["serve", "--conns", "2"])).is_err());
        assert!(parse(&argv(&["sample", "--coop-walkers", "4"])).is_err());
        assert!(parse(&argv(&["multi-site", "--coop-conns", "2"])).is_err());
    }

    #[test]
    fn chaos_and_steal_flags() {
        let fleet = parse(&argv(&[
            "multi-site",
            "--steal",
            "--chaos",
            "seed=7,throttle=0.2,retry_after=250,fail=0.1,drop=0.05",
        ]))
        .unwrap();
        match fleet.command {
            Command::MultiSite { chaos, steal, .. } => {
                let spec = chaos.expect("--chaos parsed");
                assert_eq!(spec.seed, 7);
                assert_eq!(spec.throttle, 0.2);
                assert_eq!(spec.retry_after_ms, 250);
                assert!(steal);
            }
            other => panic!("wrong command {other:?}"),
        }
        let served = parse(&argv(&["serve", "--chaos", "latency=30,fail=0.1"])).unwrap();
        match served.command {
            Command::Serve { chaos, .. } => {
                let spec = chaos.expect("--chaos parsed");
                assert_eq!(spec.latency_ms, 30);
                assert_eq!(spec.fail, 0.1);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Strictness: bad grammar, wrong commands, real wire.
        assert!(parse(&argv(&["serve", "--chaos", "throttle=2.0"])).is_err());
        assert!(parse(&argv(&["serve", "--chaos", "psychic=1"])).is_err());
        assert!(parse(&argv(&["sample", "--chaos", "fail=0.1"])).is_err());
        assert!(parse(&argv(&["serve", "--steal"])).is_err());
        assert!(parse(&argv(&[
            "multi-site",
            "--remote",
            "h1:1",
            "--chaos",
            "fail=0.1"
        ]))
        .is_err());
    }

    #[test]
    fn watch_flag() {
        let cli = parse(&argv(&["sample", "--watch"])).unwrap();
        assert!(matches!(cli.command, Command::Sample { watch: true, .. }));
        let fleet = parse(&argv(&["multi-site", "--watch"])).unwrap();
        assert!(matches!(
            fleet.command,
            Command::MultiSite { watch: true, .. }
        ));
        // --watch is never silently ignored by other commands.
        assert!(parse(&argv(&["serve", "--watch"])).is_err());
        assert!(parse(&argv(&["aggregate", "--watch"])).is_err());
    }

    #[test]
    fn locator_and_site_flags() {
        // `sample` takes one positional locator, any scheme.
        let cli = parse(&argv(&["sample", "local:boolean?n=500", "--samples", "40"])).unwrap();
        assert!(matches!(
            cli.command,
            Command::Sample { locator: Some(ref l), .. } if l == "local:boolean?n=500"
        ));
        let cli = parse(&argv(&["sample", "http://127.0.0.1:8080"])).unwrap();
        assert!(matches!(
            cli.command,
            Command::Sample { locator: Some(ref l), .. } if l == "http://127.0.0.1:8080"
        ));
        // --record rides along with several walkers.
        let cli = parse(&argv(&[
            "sample",
            "http://h:1",
            "--record",
            "tape.jsonl",
            "--walkers",
            "8",
        ]))
        .unwrap();
        assert!(matches!(
            cli.command,
            Command::Sample {
                record: Some(ref r),
                walkers: 8,
                ..
            } if r == "tape.jsonl"
        ));
        // Repeatable --site builds a heterogeneous fleet.
        let cli = parse(&argv(&[
            "multi-site",
            "--site",
            "replay:tape.jsonl",
            "--site",
            "local:boolean",
            "--site",
            "http://h:1",
        ]))
        .unwrap();
        match cli.command {
            Command::MultiSite { site_locators, .. } => assert_eq!(
                site_locators,
                vec!["replay:tape.jsonl", "local:boolean", "http://h:1"]
            ),
            other => panic!("wrong command {other:?}"),
        }
        // Contradictions fail loudly instead of being silently ignored.
        assert!(parse(&argv(&["sample", "http://h:1", "--remote", "h:2"])).is_err());
        assert!(parse(&argv(&["sample", "a", "b"])).is_err());
        assert!(parse(&argv(&["describe", "local:boolean"])).is_err());
        assert!(parse(&argv(&["serve", "--site", "local:boolean"])).is_err());
        assert!(parse(&argv(&["multi-site", "--record", "t.jsonl"])).is_err());
        assert!(parse(&argv(&["multi-site", "--site", "local:b", "--sites", "2"])).is_err());
        assert!(parse(&argv(&[
            "multi-site",
            "--site",
            "local:b",
            "--latency",
            "50"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "multi-site",
            "--site",
            "local:b",
            "--remote",
            "h:1"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "multi-site",
            "--site",
            "local:b",
            "--chaos",
            "fail=0.1"
        ]))
        .is_err());
        assert!(parse(&argv(&["multi-site", "--site", "local:b", "--watch"])).is_err());
    }

    #[test]
    fn trace_and_metrics_flags() {
        let cli = parse(&argv(&["sample", "--trace", "run.jsonl", "--metrics", "0"])).unwrap();
        assert!(matches!(
            cli.command,
            Command::Sample {
                trace: Some(ref t),
                metrics: Some(ref m),
                ..
            } if t == "run.jsonl" && m == "0"
        ));
        let fleet = parse(&argv(&["multi-site", "--trace", "fleet.jsonl"])).unwrap();
        assert!(matches!(
            fleet.command,
            Command::MultiSite { trace: Some(ref t), .. } if t == "fleet.jsonl"
        ));
        let served = parse(&argv(&[
            "serve",
            "--trace",
            "requests.jsonl",
            "--metrics",
            "final.prom",
        ]))
        .unwrap();
        assert!(matches!(
            served.command,
            Command::Serve {
                trace: Some(ref t),
                metrics: Some(ref m),
                ..
            } if t == "requests.jsonl" && m == "final.prom"
        ));
        // Never silently ignored elsewhere.
        assert!(parse(&argv(&["describe", "--trace", "x.jsonl"])).is_err());
        assert!(parse(&argv(&["aggregate", "--metrics", "0"])).is_err());
        assert!(parse(&argv(&["validate", "--trace", "x.jsonl"])).is_err());
    }

    #[test]
    fn trace_subcommand() {
        let report = parse(&argv(&["trace", "report", "run.jsonl"])).unwrap();
        assert_eq!(
            report.command,
            Command::Trace {
                action: TraceAction::Report {
                    journal: "run.jsonl".into()
                }
            }
        );
        let watch = parse(&argv(&["trace", "watch", "127.0.0.1:8000"])).unwrap();
        assert_eq!(
            watch.command,
            Command::Trace {
                action: TraceAction::Watch {
                    addr: "127.0.0.1:8000".into()
                }
            }
        );
        // Missing or bogus actions and operands fail loudly.
        assert!(parse(&argv(&["trace"])).is_err());
        assert!(parse(&argv(&["trace", "report"])).is_err());
        assert!(parse(&argv(&["trace", "watch"])).is_err());
        assert!(parse(&argv(&["trace", "psychic", "x"])).is_err());
        assert!(parse(&argv(&["trace", "report", "a.jsonl", "b.jsonl"])).is_err());
    }

    #[test]
    fn l2_cache_and_max_conns_flags() {
        let cli = parse(&argv(&["sample", "local:boolean", "--l2", "hist"])).unwrap();
        assert!(matches!(
            cli.command,
            Command::Sample { l2: Some(ref d), .. } if d == "hist"
        ));
        let fleet = parse(&argv(&["multi-site", "--l2", "hist"])).unwrap();
        assert!(matches!(
            fleet.command,
            Command::MultiSite { l2: Some(ref d), .. } if d == "hist"
        ));
        let served = parse(&argv(&["serve", "--max-conns", "64"])).unwrap();
        assert!(matches!(
            served.command,
            Command::Serve { max_conns: 64, .. }
        ));
        for (word, action) in [
            ("stats", CacheAction::Stats),
            ("compact", CacheAction::Compact),
            ("clear", CacheAction::Clear),
        ] {
            let cli = parse(&argv(&["cache", word, "--l2", "hist"])).unwrap();
            assert_eq!(
                cli.command,
                Command::Cache {
                    action,
                    dir: "hist".into()
                }
            );
        }
        // Never silently ignored or under-specified.
        assert!(parse(&argv(&["serve", "--l2", "hist"])).is_err());
        assert!(parse(&argv(&["describe", "--l2", "hist"])).is_err());
        assert!(parse(&argv(&["sample", "--max-conns", "4"])).is_err());
        assert!(parse(&argv(&["serve", "--max-conns", "abc"])).is_err());
        assert!(parse(&argv(&["cache", "--l2", "hist"])).is_err());
        assert!(parse(&argv(&["cache", "stats"])).is_err());
        assert!(parse(&argv(&["cache", "psychic", "--l2", "hist"])).is_err());
        assert!(parse(&argv(&["cache", "stats", "clear", "--l2", "hist"])).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&["sample", "--n"])).is_err());
        assert!(parse(&argv(&["sample", "--n", "abc"])).is_err());
        assert!(parse(&argv(&["sample", "--slider", "1.5"])).is_err());
        assert!(parse(&argv(&["sample", "--bind", "nokv"])).is_err());
        assert!(parse(&argv(&["sample", "--counts", "psychic"])).is_err());
        assert!(parse(&argv(&["sample", "--wat", "1"])).is_err());
    }
}
