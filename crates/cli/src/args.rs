//! Hand-rolled argument parsing (no external parser dependencies).
//!
//! Every command names its site with one [`SiteLocator`] (a positional
//! argument, or `--site` legs under `multi-site`); the flags only steer
//! the run. [`FLAGS`] lists which commands take each flag, and a flag
//! given to any other command is an error rather than silently ignored.

use hdsampler_webform::SiteLocator;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
HDSampler — sampling hidden databases behind top-k web forms

USAGE:
  hdsampler <COMMAND> <locator> [OPTIONS]

COMMANDS:
  describe <locator>    show a site's form, discovered off its `/` page
  sample <locator>      run an incremental sampling session and print histograms
  aggregate <locator>   estimate aggregates (proportion / avg)
  validate <local:...>  compare sampled marginals against the simulation's truth
  multi-site --site <locator> [--site <locator> ...]
                        drive a fleet of sites concurrently (virtual or real wire)
  serve <local:...>     put a simulated site behind a real HTTP front door
  trace                 analyze a trace journal or follow a live /events stream
  cache                 inspect or maintain a persistent L2 history directory

LOCATORS (one string names a site; its schema, k and count support are
discovered by scraping its `/` page, never configured; quote a locator
holding `&` in the shell):
  local:<dataset>[?key=value&...]  an in-process simulated site. Datasets:
                       vehicles-compact, vehicles-full, boolean,
                       boolean-correlated. Parameters:
      n=<N>            tuples to simulate                      (default 8000)
      k=<K>            top-k display limit, at least 1         (default 250)
      seed=<S>         data seed (also seeds the wire's jitter) (default 2009)
      counts=<absent|exact|noisy>  count banner mode           (default absent)
      budget=<Q>       per-session query limit
      latency=<MS>     virtual service time per request        (default 1)
      jitter=<MS>      ± uniform jitter around latency         (default 0)
      l2=<dir>         this leg's persistent history root (wins over --l2)
      chaos=<spec>     seeded faults. On a client's virtual wire: a fault-
                       injecting transport (a spec without latency takes the
                       leg's latency=); under serve: a live adversary whose
                       sleeps are real wall clock. e.g.
                       chaos=seed=7,latency=40,throttle=0.2,retry_after=250,
                       fail=0.1,drop=0.05,slow=400x50,jitter=30,count_noise=0.3
  http://host:port     a live `hdsampler serve` over real TCP
  replay:<tape.jsonl>  a tape recorded with --record, served offline

  e.g. hdsampler sample \"local:vehicles-full?n=20000&seed=7\" --samples 300

SAMPLING OPTIONS (sample, aggregate, validate, multi-site):
  --seed <S>           sampler seed; the data seed is the locator's seed=
                       (default 2009)
  --samples <S>        sample target (per site under multi-site) (default 200)
  --slider <0..1>      efficiency/skew slider                   (default 0.0)
  --bind attr=label    pin a binding (repeatable; Figure 3 style scoping)

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
  --record <path>      write every exchange to a JSONL tape; replay it later
                       with `sample replay:<path>` (no server needed)
  --l2 <dir>           persist learned facts under <dir>/<site fingerprint>/
                       (JSONL fact log); a second run against the same site
                       version warm-starts from disk instead of the wire
                       (also a multi-site flag; a leg's l2= wins over it)
  --histogram <attr>   attribute(s) to display (repeatable; default: first)
  --watch              re-render live histograms from streaming snapshots
                       every 25 samples while the session runs
  --walkers <W>        walker machines, multiplexed on one thread (default 1)
  --conns <C>          wire connections the walkers share (default: one per
                       walker; up to 64 on a live http:// server)

aggregate:
  --proportion attr=label   estimate a proportion (repeatable)
  --avg <measure>           estimate an average   (repeatable)

validate:
  --attr <attr>        attribute to validate (default: first)

multi-site:
  --site <locator>     add one fleet leg (repeatable, at least one) — mixes
                       local:, http:// and replay: legs in a single run
  --walkers <W>        walker machines per site                 (default 2)
  --watch              re-render fleet-wide live histograms while the run
                       progresses (every leg must have the same schema, as
                       for --bind)
  --conns <C>          wire connections per site the walkers share
                       (default: one per walker; up to 64 when a leg is a
                       live http:// server)
  --steal              when a site finishes, reassign its walkers to the
                       hungriest site still sampling
  --l2 <dir>           persistent history root shared by every leg
  (one thread multiplexes every site's walkers; --samples is the per-site
  target, a leg's budget= its query cap)

serve:
  --port <P>           TCP port on 127.0.0.1 (default 8000; 0 = ephemeral)
  --serve-for <SECS>   shut down gracefully after SECS (default: run until
                       killed)
  --max-conns <N>      admission cap: connections past N concurrently open
                       get `503` + `Retry-After: 1` and are closed
                       (default 0 = uncapped)

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

/// Every command word.
const COMMANDS: &[&str] = &[
    "describe",
    "sample",
    "aggregate",
    "validate",
    "multi-site",
    "serve",
    "trace",
    "cache",
];

/// The commands that sample a site (and so take the sampling options).
const SAMPLERS: &[&str] = &["sample", "aggregate", "validate", "multi-site"];

/// Every flag and the commands that take it. Parsing rejects a flag the
/// command is not listed for, so no flag is ever accepted and ignored.
const FLAGS: &[(&str, &[&str])] = &[
    ("--seed", SAMPLERS),
    ("--samples", SAMPLERS),
    ("--slider", SAMPLERS),
    ("--bind", SAMPLERS),
    ("--walkers", &["sample", "multi-site"]),
    ("--conns", &["sample", "multi-site"]),
    ("--watch", &["sample", "multi-site"]),
    ("--trace", &["sample", "multi-site", "serve"]),
    ("--metrics", &["sample", "multi-site", "serve"]),
    ("--l2", &["sample", "multi-site", "cache"]),
    ("--record", &["sample"]),
    ("--histogram", &["sample"]),
    ("--proportion", &["aggregate"]),
    ("--avg", &["aggregate"]),
    ("--attr", &["validate"]),
    ("--site", &["multi-site"]),
    ("--steal", &["multi-site"]),
    ("--port", &["serve"]),
    ("--serve-for", &["serve"]),
    ("--max-conns", &["serve"]),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Which subcommand to run.
    pub command: Command,
    /// Sampling options.
    pub common: Common,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Show the form a site serves.
    Describe {
        /// The site.
        site: SiteLocator,
    },
    /// Incremental sampling with live histograms.
    Sample {
        /// The site (`local:…`, `http://…`, `replay:…`).
        site: SiteLocator,
        /// Attributes to display as histograms.
        histograms: Vec<String>,
        /// Record every exchange to this JSONL tape for `replay:`.
        record: Option<String>,
        /// How the run is driven and observed.
        run: RunOpts,
    },
    /// Aggregate console.
    Aggregate {
        /// The site.
        site: SiteLocator,
        /// `attr=label` proportion targets.
        proportions: Vec<(String, String)>,
        /// Measures to average.
        avgs: Vec<String>,
    },
    /// Truth comparison.
    Validate {
        /// The simulated site (`local:` only: the truth is its database).
        site: SiteLocator,
        /// Attribute to validate.
        attr: Option<String>,
    },
    /// Fleet driving: one leg per locator, every leg's walkers on one
    /// thread.
    MultiSite {
        /// The fleet legs (`--site`, repeatable, at least one).
        sites: Vec<SiteLocator>,
        /// Reassign finished sites' walkers to the hungriest site still
        /// sampling.
        steal: bool,
        /// How the run is driven and observed.
        run: RunOpts,
    },
    /// Serve a simulated site over real HTTP.
    Serve {
        /// The simulated site (`local:` only); its `chaos=` parameter
        /// hides it behind an adversary.
        site: SiteLocator,
        /// Port on 127.0.0.1 (0 picks an ephemeral port).
        port: u16,
        /// Graceful shutdown after this many seconds (None: run until
        /// killed).
        serve_for: Option<u64>,
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

/// How a `sample` or `multi-site` run is driven and observed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Walker machines per site, multiplexed on one thread.
    pub walkers: usize,
    /// Wire connections per site the walkers share (default: one per
    /// walker, capped when a site is a live server).
    pub conns: Option<usize>,
    /// Re-render live histograms from streaming snapshots mid-run.
    pub watch: bool,
    /// Journal the run's trace events to this JSONL path.
    pub trace: Option<String>,
    /// Loopback port for a live telemetry server (`/metrics` +
    /// `/events`) over the run.
    pub metrics: Option<String>,
    /// Root directory of the persistent L2 fact log (a leg's `l2=`
    /// parameter wins over it).
    pub l2: Option<String>,
}

impl RunOpts {
    /// `walkers` walkers, every other option off.
    pub fn walkers(walkers: usize) -> Self {
        RunOpts {
            walkers,
            conns: None,
            watch: false,
            trace: None,
            metrics: None,
            l2: None,
        }
    }
}

/// The sampling options shared by every command that samples a site.
#[derive(Debug, Clone, PartialEq)]
pub struct Common {
    /// Sampler seed (the data seed lives in the locator).
    pub seed: u64,
    /// Sample target.
    pub samples: usize,
    /// Slider position.
    pub slider: f64,
    /// Pinned bindings.
    pub binds: Vec<(String, String)>,
}

impl Default for Common {
    fn default() -> Self {
        Common {
            seed: 2009,
            samples: 200,
            slider: 0.0,
            binds: Vec::new(),
        }
    }
}

fn split_kv(s: &str, flag: &str) -> Result<(String, String), String> {
    s.split_once('=')
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .ok_or_else(|| format!("{flag} expects attr=label, got `{s}`"))
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a number"))
}

fn at_least_one(flag: &str, value: &str) -> Result<usize, String> {
    match number(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// The one positional locator of `describe`/`sample`/`aggregate`/
/// `validate`/`serve`; `validate` and `serve` need a `local:` site.
fn one_locator(command: &str, words: Vec<String>) -> Result<SiteLocator, String> {
    let mut words = words.into_iter();
    let word = words.next().ok_or_else(|| {
        format!("{command} needs a site locator, e.g. `{command} local:vehicles-compact`")
    })?;
    if let Some(extra) = words.next() {
        return Err(format!(
            "unexpected argument `{extra}` ({command} takes one site locator)"
        ));
    }
    let site = SiteLocator::parse(&word)?;
    if matches!(command, "validate" | "serve") && !matches!(site, SiteLocator::Local { .. }) {
        return Err(format!(
            "{command} needs a simulated `local:` site (got `{site}`): {}",
            if command == "validate" {
                "the truth it compares against is the site's own database"
            } else {
                "it serves an in-process database"
            }
        ));
    }
    Ok(site)
}

/// Parse an argv slice (without the program name).
pub fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut it = argv.iter();
    let command_word = it.next().ok_or("missing command")?.as_str();
    if command_word == "--help" || command_word == "-h" {
        return Err("help requested".into());
    }
    if !COMMANDS.contains(&command_word) {
        return Err(format!("unknown command `{command_word}`"));
    }

    let mut common = Common::default();
    let mut words: Vec<String> = Vec::new();
    let mut histograms = Vec::new();
    let mut proportions = Vec::new();
    let mut avgs = Vec::new();
    let mut validate_attr = None;
    let mut walkers = None;
    let mut run = RunOpts::walkers(1);
    let mut port = 8000u16;
    let mut serve_for = None;
    let mut steal = false;
    let mut sites: Vec<SiteLocator> = Vec::new();
    let mut record = None;
    let mut max_conns = 0usize;

    while let Some(flag) = it.next() {
        if !flag.starts_with('-') {
            words.push(flag.clone());
            continue;
        }
        let takers = FLAGS
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, takers)| *takers)
            .ok_or_else(|| format!("unknown option `{flag}`"))?;
        if !takers.contains(&command_word) {
            return Err(format!(
                "{flag} does not apply to `{command_word}` (it is a flag of: {})",
                takers.join(", ")
            ));
        }
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => common.seed = number(flag, value()?)?,
            "--samples" => common.samples = number(flag, value()?)?,
            "--slider" => {
                common.slider = number(flag, value()?)?;
                if !(0.0..=1.0).contains(&common.slider) {
                    return Err("--slider must lie in [0, 1]".into());
                }
            }
            "--bind" => common.binds.push(split_kv(value()?, flag)?),
            "--walkers" => walkers = Some(at_least_one(flag, value()?)?),
            "--conns" => run.conns = Some(at_least_one(flag, value()?)?),
            "--watch" => run.watch = true,
            "--trace" => run.trace = Some(value()?.clone()),
            "--metrics" => run.metrics = Some(value()?.clone()),
            "--l2" => run.l2 = Some(value()?.clone()),
            "--record" => record = Some(value()?.clone()),
            "--histogram" => histograms.push(value()?.clone()),
            "--proportion" => proportions.push(split_kv(value()?, flag)?),
            "--avg" => avgs.push(value()?.clone()),
            "--attr" => validate_attr = Some(value()?.clone()),
            "--site" => sites.push(SiteLocator::parse(value()?)?),
            "--steal" => steal = true,
            "--port" => port = value()?.parse().map_err(|_| "--port: not a port number")?,
            "--serve-for" => serve_for = Some(number(flag, value()?)?),
            "--max-conns" => max_conns = number(flag, value()?)?,
            other => unreachable!("`{other}` is in FLAGS but has no parser"),
        }
    }

    let command = match command_word {
        "describe" => Command::Describe {
            site: one_locator(command_word, words)?,
        },
        "sample" => Command::Sample {
            site: one_locator(command_word, words)?,
            histograms,
            record,
            run: RunOpts {
                walkers: walkers.unwrap_or(1),
                ..run
            },
        },
        "aggregate" => Command::Aggregate {
            site: one_locator(command_word, words)?,
            proportions,
            avgs,
        },
        "validate" => Command::Validate {
            site: one_locator(command_word, words)?,
            attr: validate_attr,
        },
        "multi-site" => {
            if let Some(word) = words.first() {
                return Err(format!(
                    "unexpected argument `{word}` (name each fleet leg with --site <locator>)"
                ));
            }
            if sites.is_empty() {
                return Err(
                    "multi-site needs at least one leg: --site <locator> (repeatable)".into(),
                );
            }
            Command::MultiSite {
                sites,
                steal,
                run: RunOpts {
                    walkers: walkers.unwrap_or(2),
                    ..run
                },
            }
        }
        "serve" => Command::Serve {
            site: one_locator(command_word, words)?,
            port,
            serve_for,
            trace: run.trace,
            metrics: run.metrics,
            max_conns,
        },
        "trace" => {
            let mut words = words.into_iter();
            let action = match (words.next(), words.next(), words.next()) {
                (_, _, Some(extra)) => {
                    return Err(format!(
                        "unexpected argument `{extra}` (trace takes an action \
                         and one operand)"
                    ))
                }
                (Some(a), Some(operand), None) => match a.as_str() {
                    "report" => TraceAction::Report { journal: operand },
                    "watch" => TraceAction::Watch { addr: operand },
                    other => {
                        return Err(format!(
                            "unknown trace action `{other}` (expected `report` or `watch`)"
                        ))
                    }
                },
                (Some(a), None, None) => {
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
                (None, _, _) => {
                    return Err("trace needs an action: `trace report <journal.jsonl>` \
                                or `trace watch <host:port>`"
                        .into())
                }
            };
            Command::Trace { action }
        }
        "cache" => {
            if words.len() > 1 {
                return Err(format!(
                    "unexpected argument `{}` (cache takes one action)",
                    words[1]
                ));
            }
            let action = match words.first().map(String::as_str) {
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
            let dir = run
                .l2
                .ok_or("cache needs the history directory: --l2 <dir>")?;
            Command::Cache { action, dir }
        }
        other => unreachable!("`{other}` is in COMMANDS but has no builder"),
    };
    Ok(Cli { command, common })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn loc(s: &str) -> SiteLocator {
        SiteLocator::parse(s).unwrap()
    }

    #[test]
    fn parses_sample_with_everything() {
        let cli = parse(&argv(&[
            "sample",
            "local:vehicles-full?n=1000&k=50&budget=5000",
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
            "--histogram",
            "make",
            "--histogram",
            "year",
        ]))
        .unwrap();
        assert_eq!(cli.common.seed, 7);
        assert_eq!(cli.common.samples, 99);
        assert_eq!(cli.common.slider, 0.5);
        assert_eq!(cli.common.binds.len(), 2);
        assert_eq!(
            cli.command,
            Command::Sample {
                site: loc("local:vehicles-full?n=1000&k=50&budget=5000"),
                histograms: vec!["make".into(), "year".into()],
                record: None,
                run: RunOpts::walkers(1),
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let cli = parse(&argv(&["describe", "local:vehicles-compact"])).unwrap();
        assert_eq!(cli.common, Common::default());
        assert_eq!(cli.common.seed, 2009);
        assert_eq!(
            cli.command,
            Command::Describe {
                site: loc("local:vehicles-compact")
            }
        );
        // Every site-naming command needs its locator.
        for command in ["describe", "sample", "aggregate", "validate", "serve"] {
            let err = parse(&argv(&[command])).unwrap_err();
            assert!(err.contains("needs a site locator"), "{command}: {err}");
        }
    }

    #[test]
    fn aggregate_flags() {
        let cli = parse(&argv(&[
            "aggregate",
            "http://127.0.0.1:8000",
            "--proportion",
            "make=Toyota",
            "--avg",
            "price_usd",
        ]))
        .unwrap();
        match cli.command {
            Command::Aggregate {
                site,
                proportions,
                avgs,
            } => {
                assert_eq!(site, loc("http://127.0.0.1:8000"));
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
            "--site",
            "local:boolean?seed=1",
            "--site",
            "local:boolean?seed=2",
            "--walkers",
            "4",
            "--conns",
            "2",
            "--samples",
            "80",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::MultiSite {
                sites: vec![loc("local:boolean?seed=1"), loc("local:boolean?seed=2")],
                steal: false,
                run: RunOpts {
                    conns: Some(2),
                    ..RunOpts::walkers(4)
                },
            }
        );
        assert_eq!(cli.common.samples, 80);

        let defaults = parse(&argv(&["multi-site", "--site", "local:boolean"])).unwrap();
        assert!(matches!(
            defaults.command,
            Command::MultiSite { run, .. } if run == RunOpts::walkers(2)
        ));
        // A fleet is its legs: none is an error, and so is a bare word.
        assert!(parse(&argv(&["multi-site"])).is_err());
        assert!(parse(&argv(&["multi-site", "local:boolean"])).is_err());
        assert!(parse(&argv(&["multi-site", "--site", "boolean"])).is_err());
        assert!(parse(&argv(&[
            "multi-site",
            "--site",
            "local:b",
            "--walkers",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&["multi-site", "--site", "local:b", "--conns", "0"])).is_err());
        assert!(parse(&argv(&["multi-site", "--driver", "coop"])).is_err());
    }

    #[test]
    fn multi_site_heterogeneous_latency_and_jitter() {
        // Per-site wires live in the legs; the fleet-wide wire flags are
        // gone.
        let cli = parse(&argv(&[
            "multi-site",
            "--site",
            "local:vehicles-compact?seed=2009&latency=50&jitter=20",
            "--site",
            "local:vehicles-compact?seed=2010&latency=250&jitter=20",
        ]))
        .unwrap();
        match cli.command {
            Command::MultiSite { sites, .. } => assert_eq!(
                sites,
                vec![
                    loc("local:vehicles-compact?seed=2009&latency=50&jitter=20"),
                    loc("local:vehicles-compact?seed=2010&latency=250&jitter=20"),
                ]
            ),
            other => panic!("wrong command {other:?}"),
        }
        for flag in ["--latency", "--jitter", "--sites"] {
            let err = parse(&argv(&["multi-site", "--site", "local:b", flag, "50"])).unwrap_err();
            assert!(err.contains("unknown option"), "{flag}: {err}");
        }
    }

    #[test]
    fn serve_and_remote_flags() {
        let cli = parse(&argv(&[
            "serve",
            "local:boolean?n=500",
            "--port",
            "9090",
            "--serve-for",
            "30",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                site: loc("local:boolean?n=500"),
                port: 9090,
                serve_for: Some(30),
                trace: None,
                metrics: None,
                max_conns: 0,
            }
        );

        let defaults = parse(&argv(&["serve", "local:vehicles-compact"])).unwrap();
        assert!(matches!(
            defaults.command,
            Command::Serve {
                port: 8000,
                serve_for: None,
                ..
            }
        ));
        assert!(parse(&argv(&["serve", "local:b", "--port", "99999"])).is_err());
        // serve needs a simulated site to serve.
        assert!(parse(&argv(&["serve", "http://h:1"])).is_err());
        assert!(parse(&argv(&["serve", "replay:t.jsonl"])).is_err());

        // A live server is an `http://` locator; the old flag is gone.
        let remote = parse(&argv(&["sample", "http://127.0.0.1:9090"])).unwrap();
        assert!(matches!(
            remote.command,
            Command::Sample { site: SiteLocator::Http { ref addr }, .. } if addr == "127.0.0.1:9090"
        ));
        for flag in ["--remote", "--reactor", "--chaos", "--source", "--n", "--k"] {
            assert!(
                parse(&argv(&["sample", "local:b", flag, "1"])).is_err(),
                "{flag}"
            );
        }
    }

    #[test]
    fn walker_flags() {
        let cli = parse(&argv(&[
            "sample",
            "http://127.0.0.1:9090",
            "--walkers",
            "64",
            "--conns",
            "4",
        ]))
        .unwrap();
        assert!(matches!(
            cli.command,
            Command::Sample {
                run: RunOpts {
                    walkers: 64,
                    conns: Some(4),
                    ..
                },
                ..
            }
        ));
        let fleet = parse(&argv(&[
            "multi-site",
            "--site",
            "local:b",
            "--walkers",
            "16",
            "--conns",
            "8",
        ]))
        .unwrap();
        assert!(matches!(
            fleet.command,
            Command::MultiSite {
                run: RunOpts {
                    walkers: 16,
                    conns: Some(8),
                    ..
                },
                ..
            }
        ));
        assert!(parse(&argv(&["sample", "local:b", "--walkers", "0"])).is_err());
        assert!(parse(&argv(&["sample", "local:b", "--conns", "0"])).is_err());
        assert!(parse(&argv(&["sample", "local:b", "--coop-walkers", "4"])).is_err());
    }

    #[test]
    fn chaos_and_steal_flags() {
        let fleet = parse(&argv(&[
            "multi-site",
            "--steal",
            "--site",
            "local:vehicles-compact?chaos=seed=7,throttle=0.2,retry_after=250&latency=40",
        ]))
        .unwrap();
        match fleet.command {
            Command::MultiSite { sites, steal, .. } => {
                assert!(steal);
                match &sites[0] {
                    SiteLocator::Local { params, .. } => assert_eq!(
                        params[0],
                        ("chaos".into(), "seed=7,throttle=0.2,retry_after=250".into()),
                        "the spec keeps its `=` and `,`"
                    ),
                    other => panic!("wrong locator {other:?}"),
                }
            }
            other => panic!("wrong command {other:?}"),
        }
        // Chaos is a locator parameter now, under serve too.
        assert!(parse(&argv(&["serve", "local:b?chaos=fail=0.1"])).is_ok());
        assert!(parse(&argv(&["serve", "local:b", "--chaos", "fail=0.1"])).is_err());
    }

    #[test]
    fn watch_flag() {
        let cli = parse(&argv(&["sample", "local:b", "--watch"])).unwrap();
        assert!(matches!(cli.command, Command::Sample { run, .. } if run.watch));
        let fleet = parse(&argv(&["multi-site", "--site", "local:b", "--watch"])).unwrap();
        assert!(matches!(fleet.command, Command::MultiSite { run, .. } if run.watch));
    }

    #[test]
    fn locator_and_site_flags() {
        for command in ["describe", "sample", "aggregate"] {
            for s in [
                "local:boolean?n=500",
                "http://127.0.0.1:8080",
                "replay:t.jsonl",
            ] {
                assert!(parse(&argv(&[command, s])).is_ok(), "{command} {s}");
            }
        }
        // validate compares against the simulation's own database.
        assert!(parse(&argv(&["validate", "local:boolean"])).is_ok());
        let err = parse(&argv(&["validate", "http://h:1"])).unwrap_err();
        assert!(err.contains("local:"), "{err}");
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
            Command::Sample { record: Some(ref r), ref run, .. }
                if r == "tape.jsonl" && run.walkers == 8
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
            Command::MultiSite { sites, .. } => assert_eq!(
                sites,
                vec![
                    loc("replay:tape.jsonl"),
                    loc("local:boolean"),
                    loc("http://h:1")
                ]
            ),
            other => panic!("wrong command {other:?}"),
        }
        // One locator per command, and it must parse.
        assert!(parse(&argv(&["sample", "local:a", "local:b"])).is_err());
        let err = parse(&argv(&["sample", "boolean"])).unwrap_err();
        assert!(err.contains("did you mean `local:boolean`?"), "{err}");
    }

    /// A valid value for each flag that takes one.
    fn sample_value(flag: &str) -> Option<&'static str> {
        match flag {
            "--watch" | "--steal" => None,
            "--bind" | "--proportion" => Some("make=Toyota"),
            "--slider" => Some("0.5"),
            "--site" => Some("local:boolean"),
            "--histogram" | "--avg" | "--attr" => Some("make"),
            "--trace" | "--record" => Some("out.jsonl"),
            "--l2" => Some("hist"),
            _ => Some("3"),
        }
    }

    /// The smallest valid command line for each command.
    fn base(command: &str) -> Vec<&'static str> {
        match command {
            "describe" => vec!["describe", "local:boolean"],
            "sample" => vec!["sample", "local:boolean"],
            "aggregate" => vec!["aggregate", "local:boolean"],
            "validate" => vec!["validate", "local:boolean"],
            "multi-site" => vec!["multi-site", "--site", "local:boolean"],
            "serve" => vec!["serve", "local:boolean"],
            "trace" => vec!["trace", "report", "run.jsonl"],
            "cache" => vec!["cache", "stats", "--l2", "hist"],
            other => panic!("no base command line for `{other}`"),
        }
    }

    #[test]
    fn every_flag_is_accepted_exactly_where_the_table_says() {
        assert_eq!(FLAGS.len(), 20, "the CLI's whole flag surface");
        for command in COMMANDS {
            assert!(parse(&argv(&base(command))).is_ok(), "base `{command}`");
            for (flag, takers) in FLAGS {
                let mut words = base(command);
                words.push(flag);
                words.extend(sample_value(flag));
                let parsed = parse(&argv(&words));
                if takers.contains(command) {
                    assert!(parsed.is_ok(), "{words:?}: {parsed:?}");
                } else {
                    let err = parsed.unwrap_err();
                    assert!(
                        err.contains(&format!("{flag} does not apply to `{command}`")),
                        "{words:?}: {err}"
                    );
                }
            }
        }
        // The flags that used to be accepted and then ignored.
        for words in [
            &["describe", "local:b", "--port", "5"][..],
            &["describe", "local:b", "--samples", "5"],
            &["describe", "local:b", "--bind", "make=Honda"],
            &["sample", "local:b", "--attr", "make"],
            &["describe", "local:b", "--avg", "price_usd"],
        ] {
            assert!(parse(&argv(words)).is_err(), "{words:?}");
        }
    }

    #[test]
    fn trace_and_metrics_flags() {
        let cli = parse(&argv(&[
            "sample",
            "local:b",
            "--trace",
            "run.jsonl",
            "--metrics",
            "0",
        ]))
        .unwrap();
        assert!(matches!(
            cli.command,
            Command::Sample { run: RunOpts { trace: Some(ref t), metrics: Some(ref m), .. }, .. }
                if t == "run.jsonl" && m == "0"
        ));
        let fleet = parse(&argv(&[
            "multi-site",
            "--site",
            "local:b",
            "--trace",
            "fleet.jsonl",
        ]))
        .unwrap();
        assert!(matches!(
            fleet.command,
            Command::MultiSite { run: RunOpts { trace: Some(ref t), .. }, .. } if t == "fleet.jsonl"
        ));
        let served = parse(&argv(&[
            "serve",
            "local:b",
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
            Command::Sample { run: RunOpts { l2: Some(ref d), .. }, .. } if d == "hist"
        ));
        let fleet = parse(&argv(&["multi-site", "--site", "local:b", "--l2", "hist"])).unwrap();
        assert!(matches!(
            fleet.command,
            Command::MultiSite { run: RunOpts { l2: Some(ref d), .. }, .. } if d == "hist"
        ));
        let served = parse(&argv(&["serve", "local:b", "--max-conns", "64"])).unwrap();
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
        // Never under-specified.
        assert!(parse(&argv(&["serve", "local:b", "--max-conns", "abc"])).is_err());
        assert!(parse(&argv(&["cache", "--l2", "hist"])).is_err());
        assert!(parse(&argv(&["cache", "stats"])).is_err());
        assert!(parse(&argv(&["cache", "psychic", "--l2", "hist"])).is_err());
        assert!(parse(&argv(&["cache", "stats", "clear", "--l2", "hist"])).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&["sample", "local:b", "--samples"])).is_err());
        assert!(parse(&argv(&["sample", "local:b", "--samples", "abc"])).is_err());
        assert!(parse(&argv(&["sample", "local:b", "--slider", "1.5"])).is_err());
        assert!(parse(&argv(&["sample", "local:b", "--bind", "nokv"])).is_err());
        assert!(parse(&argv(&["sample", "local:b", "--wat", "1"])).is_err());
        assert!(parse(&argv(&["sample", "ftp://x"])).is_err());
    }
}
