//! The one virtual wire, with seeded, deterministic fault injection.
//!
//! Real hidden databases throttle, flake and drift; the sampler's
//! convergence claim is only credible if the stack survives them. This
//! module supplies the client half of the robustness layer (the server
//! half is `Adversary` in `hdsampler-server`): a [`ChaosSpec`] describing
//! a fault schedule that is a *pure function of (seed, request index)* —
//! replaying a run with the same seed replays byte-identical faults — and
//! a [`ChaosTransport`] decorator that injects those faults over any
//! blocking [`Transport`] while billing service time on per-connection
//! virtual clocks ([`crate::aio`]). It is the only simulated wire: a spec
//! that injects no fault is the plain latency wire that
//! [`LatencyTransport`](crate::transport::LatencyTransport) builds and a
//! `local:` leg without `chaos=` rides.
//!
//! Fault classes (each independently configurable, all off by default):
//!
//! * **throttle** — probabilistic 429-style rate limiting surfaced as the
//!   retryable [`InterfaceError::Throttled`] with the advertised
//!   `retry_after` interval;
//! * **fail** — transient 503s surfaced as retryable transport errors;
//! * **drop** — connection drops/resets surfaced as retryable transport
//!   errors;
//! * **slow-start** — extra service time that decays linearly over the
//!   first `warmup` requests (a cold cache warming up);
//! * **jitter** — per-request service-time noise on top of the base
//!   latency: 0..=`jitter` ms extra, uniform, drawn from the seed and the
//!   request index;
//! * **count-noise** — episodes during which the result page's "About N
//!   results" banner is rewritten by a factor in [0.5, 1.5). Harmless to
//!   classification (which reads the overflow notice and the result rows,
//!   never the banner) — exactly the drift a scraper must shrug off.
//!
//! [`RetryPolicy`] is the client's answer: capped exponential backoff that
//! honors a server-advertised `Retry-After`, used by the blocking
//! [`WebFormInterface`](crate::adapter::WebFormInterface) execute path and
//! by the cooperative driver's parked-walker backoff.

use std::sync::atomic::{AtomicU64, Ordering};

use hdsampler_model::InterfaceError;

use crate::aio::{AsyncTransport, ConnId, FetchHandle, FetchPoll, VirtualWire};
use crate::render::format_thousands;
use crate::transport::{Clocked, Transport};

/// Requests per count-noise episode: the banner multiplier holds for a
/// stretch of requests (drifting index snapshots), not per request.
const NOISE_EPISODE_LEN: u64 = 32;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// No fault: the request is served.
    None,
    /// Rate limited: 429 + `Retry-After`.
    Throttle {
        /// Advertised backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Transient server error (503).
    Transient,
    /// The connection dies mid-request.
    Drop,
}

/// The chaos verdict for one request — a pure function of
/// `(spec.seed, request index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The fault injected, if any (at most one per request; priority
    /// drop > throttle > transient).
    pub fault: Fault,
    /// Extra service time beyond the base latency (slow-start + jitter).
    pub extra_delay_ms: u64,
    /// When `Some`, multiply the page's reported count by this factor.
    pub count_factor: Option<f64>,
}

/// A seeded, deterministic fault schedule.
///
/// Parsed from the spec grammar a `local:` locator's `chaos=` parameter
/// carries: comma-separated `key=value` pairs, e.g.
/// `seed=7,latency=40,throttle=0.2,retry_after=250,fail=0.1,drop=0.05,slow=400x50,jitter=30,count_noise=0.3`.
/// Every knob defaults to "off"; an empty spec injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed for every fault draw. Same seed ⇒ byte-identical schedule.
    pub seed: u64,
    /// Base virtual service time per request (ms).
    pub latency_ms: u64,
    /// Probability a request is rate-limited.
    pub throttle: f64,
    /// `Retry-After` advertised by throttles (ms).
    pub retry_after_ms: u64,
    /// Probability of a transient 503.
    pub fail: f64,
    /// Probability the connection drops mid-request.
    pub drop: f64,
    /// Extra service time at request 0, decaying linearly to zero.
    pub slow_start_ms: u64,
    /// Number of requests the slow-start decay spans.
    pub slow_warmup: u64,
    /// Upper end of the per-request extra service time, drawn uniformly
    /// from 0..=`jitter_ms` (ms).
    pub jitter_ms: u64,
    /// Probability a 32-request episode reports noisy counts.
    pub count_noise: f64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0,
            latency_ms: 0,
            throttle: 0.0,
            retry_after_ms: 250,
            fail: 0.0,
            drop: 0.0,
            slow_start_ms: 0,
            slow_warmup: 0,
            jitter_ms: 0,
            count_noise: 0.0,
        }
    }
}

/// splitmix64's finalizer: a cheap, high-avalanche 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Per-fault-category salts: each category reads its own independent
// stream, so tuning one probability never shifts another's draws.
const SALT_DROP: u64 = 0x5EED_0001;
const SALT_THROTTLE: u64 = 0x5EED_0002;
const SALT_FAIL: u64 = 0x5EED_0003;
const SALT_JITTER: u64 = 0x5EED_0004;
const SALT_NOISE_GATE: u64 = 0x5EED_0005;
const SALT_NOISE_FACTOR: u64 = 0x5EED_0006;

/// A uniform draw in [0, 1) for request/episode `n` in category `salt`.
fn unit(seed: u64, salt: u64, n: u64) -> f64 {
    let z = mix64(mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ n);
    // 53 high bits → the full f64 mantissa.
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl ChaosSpec {
    /// Parse the spec grammar (see the type docs). Returns a
    /// human-readable error naming the offending pair.
    pub fn parse(spec: &str) -> Result<ChaosSpec, String> {
        let mut out = ChaosSpec::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: `{pair}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("chaos spec: `{key}={value}`: {what}");
            let prob = |value: &str| -> Result<f64, String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| bad("expected a probability in [0, 1]"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad("probability out of [0, 1]"));
                }
                Ok(p)
            };
            let ms = |value: &str| -> Result<u64, String> {
                value.parse().map_err(|_| bad("expected milliseconds"))
            };
            match key {
                "seed" => out.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "latency" => out.latency_ms = ms(value)?,
                "throttle" => out.throttle = prob(value)?,
                "retry_after" => out.retry_after_ms = ms(value)?,
                "fail" => out.fail = prob(value)?,
                "drop" => out.drop = prob(value)?,
                "slow" => {
                    let (extra, warmup) = value
                        .split_once('x')
                        .ok_or_else(|| bad("expected <extra_ms>x<warmup_requests>"))?;
                    out.slow_start_ms = ms(extra)?;
                    out.slow_warmup = warmup
                        .parse()
                        .map_err(|_| bad("expected a request count after `x`"))?;
                }
                "jitter" => out.jitter_ms = ms(value)?,
                "count_noise" => out.count_noise = prob(value)?,
                _ => return Err(format!("chaos spec: unknown key `{key}`")),
            }
        }
        Ok(out)
    }

    /// The chaos verdict for the `n`-th request (0-based, counted across
    /// all connections). Pure: same `(seed, n)` ⇒ same [`Decision`].
    pub fn decide(&self, n: u64) -> Decision {
        let fault = if self.drop > 0.0 && unit(self.seed, SALT_DROP, n) < self.drop {
            Fault::Drop
        } else if self.throttle > 0.0 && unit(self.seed, SALT_THROTTLE, n) < self.throttle {
            Fault::Throttle {
                retry_after_ms: self.retry_after_ms,
            }
        } else if self.fail > 0.0 && unit(self.seed, SALT_FAIL, n) < self.fail {
            Fault::Transient
        } else {
            Fault::None
        };
        let slow = if self.slow_warmup > 0 && n < self.slow_warmup {
            // Linear decay: full extra at request 0, zero after warmup.
            self.slow_start_ms * (self.slow_warmup - n) / self.slow_warmup
        } else {
            0
        };
        let jitter = if self.jitter_ms > 0 {
            (unit(self.seed, SALT_JITTER, n) * (self.jitter_ms + 1) as f64) as u64
        } else {
            0
        };
        let episode = n / NOISE_EPISODE_LEN;
        let count_factor = if self.count_noise > 0.0
            && unit(self.seed, SALT_NOISE_GATE, episode) < self.count_noise
        {
            Some(0.5 + unit(self.seed, SALT_NOISE_FACTOR, episode))
        } else {
            None
        };
        Decision {
            fault,
            extra_delay_ms: slow + jitter,
            count_factor,
        }
    }

    /// Whether any fault class is enabled at all.
    pub fn is_quiet(&self) -> bool {
        self.throttle == 0.0
            && self.fail == 0.0
            && self.drop == 0.0
            && self.slow_start_ms == 0
            && self.jitter_ms == 0
            && self.count_noise == 0.0
    }
}

/// Capped exponential backoff with `Retry-After` override.
///
/// Attempt `a` (0-based) waits `base_backoff_ms << a`, capped at
/// `max_backoff_ms` — unless the server advertised its own interval, which
/// wins (still capped). `max_retries` bounds attempts *beyond* the first:
/// a policy of 3 allows 4 total attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry (ms); doubles per attempt.
    pub base_backoff_ms: u64,
    /// Ceiling on any single backoff interval (ms).
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 25,
            max_backoff_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The wait before retry number `attempt` (0-based), honoring a
    /// server-advertised interval when present.
    pub fn backoff_ms(&self, attempt: u32, retry_after_ms: Option<u64>) -> u64 {
        let exponential = self.base_backoff_ms.saturating_mul(1u64 << attempt.min(20));
        retry_after_ms
            .unwrap_or(exponential)
            .min(self.max_backoff_ms)
    }
}

/// Running totals of faults a [`ChaosTransport`] has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Requests rate-limited.
    pub throttles: u64,
    /// Requests failed with a transient 503.
    pub transient_fails: u64,
    /// Requests whose connection dropped.
    pub drops: u64,
    /// Pages whose count banner was rewritten.
    pub noisy_pages: u64,
    /// Total extra service time injected (slow-start + jitter), ms.
    pub extra_delay_ms: u64,
}

/// Multiply a page's "About N results" banner by `factor`, leaving the
/// rest of the page untouched. Pages without a banner pass through
/// unchanged; the flag reports whether a rewrite happened. Shared with the
/// server-side `Adversary`, which injects the same drift over HTTP.
pub fn rewrite_count_banner(page: &str, factor: f64) -> (String, bool) {
    const PREFIX: &str = "<div class=\"count\">About ";
    const SUFFIX: &str = " results</div>";
    let Some(start) = page.find(PREFIX) else {
        return (page.to_string(), false);
    };
    let digits_at = start + PREFIX.len();
    let Some(end) = page[digits_at..].find(SUFFIX) else {
        return (page.to_string(), false);
    };
    let digits = &page[digits_at..digits_at + end];
    let Ok(count) = digits.replace(',', "").parse::<u64>() else {
        return (page.to_string(), false);
    };
    let noisy = (count as f64 * factor).round().max(0.0) as u64;
    let mut out = String::with_capacity(page.len());
    out.push_str(&page[..digits_at]);
    out.push_str(&format_thousands(noisy));
    out.push_str(&page[digits_at + end..]);
    (out, true)
}

/// Fault-injecting decorator over any blocking [`Transport`].
///
/// The wire-free mirror of the server-side `Adversary`, and the one
/// simulated wire: requests are billed on per-connection virtual clocks
/// (base latency plus slow-start plus jitter, at least 1 ms; elapsed = max
/// over connections), and each request consumes one position of the
/// seeded fault schedule. With a spec that injects no fault it is the
/// plain latency wire. Faulted
/// requests never reach the inner transport — a dropped or throttled
/// request costs wire time and an error, not a backend query, so the
/// site's query budget is only charged for requests actually served.
///
/// Both transport faces are implemented: blocking [`Transport::fetch`]
/// (one connection, opened on first use) and the poll/completion
/// [`AsyncTransport`] for the cooperative driver.
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    spec: ChaosSpec,
    /// Global request index: position in the fault schedule.
    requests: AtomicU64,
    wire: VirtualWire,
    throttles: AtomicU64,
    transient_fails: AtomicU64,
    drops: AtomicU64,
    noisy_pages: AtomicU64,
    extra_delay_ms: AtomicU64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner` with the fault schedule `spec`.
    pub fn new(inner: T, spec: ChaosSpec) -> Self {
        ChaosTransport {
            inner,
            spec,
            requests: AtomicU64::new(0),
            wire: VirtualWire::default(),
            throttles: AtomicU64::new(0),
            transient_fails: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            noisy_pages: AtomicU64::new(0),
            extra_delay_ms: AtomicU64::new(0),
        }
    }

    /// The fault schedule.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Fault totals so far.
    pub fn counters(&self) -> ChaosCounters {
        ChaosCounters {
            throttles: self.throttles.load(Ordering::Relaxed),
            transient_fails: self.transient_fails.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            noisy_pages: self.noisy_pages.load(Ordering::Relaxed),
            extra_delay_ms: self.extra_delay_ms.load(Ordering::Relaxed),
        }
    }

    /// Virtual wall clock so far (max over connections).
    pub fn virtual_elapsed_ms(&self) -> u64 {
        self.wire.elapsed()
    }

    /// Number of virtual connections opened.
    pub fn connections(&self) -> usize {
        self.wire.connections()
    }

    /// Serve (or fault) one request and record its chaos accounting.
    fn serve(&self, path: &str) -> (Result<String, InterfaceError>, u64) {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        let d = self.spec.decide(n);
        if d.extra_delay_ms > 0 {
            self.extra_delay_ms
                .fetch_add(d.extra_delay_ms, Ordering::Relaxed);
        }
        let result = match d.fault {
            Fault::Drop => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                Err(InterfaceError::Transport(
                    "connection reset by peer (injected)".into(),
                ))
            }
            Fault::Throttle { retry_after_ms } => {
                self.throttles.fetch_add(1, Ordering::Relaxed);
                Err(InterfaceError::Throttled { retry_after_ms })
            }
            Fault::Transient => {
                self.transient_fails.fetch_add(1, Ordering::Relaxed);
                Err(InterfaceError::Transport(
                    "503 service unavailable (injected)".into(),
                ))
            }
            Fault::None => self.inner.fetch(path).map(|page| match d.count_factor {
                Some(factor) => {
                    let (page, rewritten) = rewrite_count_banner(&page, factor);
                    if rewritten {
                        self.noisy_pages.fetch_add(1, Ordering::Relaxed);
                    }
                    page
                }
                None => page,
            }),
        };
        (result, self.spec.latency_ms + d.extra_delay_ms)
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        let handle = AsyncTransport::submit(self, self.wire.blocking_conn(), path);
        self.wire.complete(handle)
    }

    fn backoff(&self, ms: u64) {
        self.wire.backoff(ms);
    }
}

impl<T: Transport> Clocked for ChaosTransport<T> {
    fn elapsed_ms(&self) -> u64 {
        self.virtual_elapsed_ms()
    }
}

impl<T: Transport> AsyncTransport for ChaosTransport<T> {
    fn connect(&self) -> ConnId {
        self.wire.connect()
    }

    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        let (result, service_ms) = self.serve(path);
        self.wire.submit(conn, service_ms.max(1), result)
    }

    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        self.wire.poll(handle)
    }

    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        self.wire.complete(handle)
    }

    fn cancel(&self, handle: FetchHandle) {
        self.wire.cancel(handle);
    }

    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        self.wire.advance_to(conn, now_ms);
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        self.wire.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalSite;
    use hdsampler_hidden_db::{CountMode, HiddenDb};
    use hdsampler_model::{Attribute, FormInterface, SchemaBuilder, Tuple};
    use std::sync::Arc;

    fn site(count_mode: CountMode) -> LocalSite<HiddenDb> {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "Honda"]).unwrap())
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema))
            .result_limit(1)
            .count_mode(count_mode);
        for v in [0u16, 0, 1] {
            b.push(&Tuple::new(&schema, vec![v], vec![]).unwrap())
                .unwrap();
        }
        LocalSite::new(b.finish(), schema)
    }

    #[test]
    fn spec_grammar_round_trips() {
        let spec = ChaosSpec::parse(
            "seed=7,latency=40,throttle=0.2,retry_after=250,fail=0.1,drop=0.05,\
             slow=400x50,jitter=30,count_noise=0.3",
        )
        .unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.latency_ms, 40);
        assert_eq!(spec.throttle, 0.2);
        assert_eq!(spec.retry_after_ms, 250);
        assert_eq!(spec.fail, 0.1);
        assert_eq!(spec.drop, 0.05);
        assert_eq!(spec.slow_start_ms, 400);
        assert_eq!(spec.slow_warmup, 50);
        assert_eq!(spec.jitter_ms, 30);
        assert_eq!(spec.count_noise, 0.3);
        assert!(!spec.is_quiet());

        assert_eq!(ChaosSpec::parse("").unwrap(), ChaosSpec::default());
        assert!(ChaosSpec::default().is_quiet());
        assert!(ChaosSpec::parse("throttle=1.5").is_err());
        assert!(ChaosSpec::parse("bogus=1").is_err());
        assert!(ChaosSpec::parse("slow=400").is_err());
        assert!(ChaosSpec::parse("throttle").is_err());
    }

    #[test]
    fn fault_schedule_hits_every_class() {
        let spec = ChaosSpec::parse(
            "seed=11,throttle=0.15,fail=0.1,drop=0.05,slow=200x20,jitter=10,count_noise=0.5",
        )
        .unwrap();
        let mut seen = (false, false, false, false);
        let mut slow = false;
        for n in 0..1_000 {
            let d = spec.decide(n);
            match d.fault {
                Fault::None => seen.0 = true,
                Fault::Throttle { retry_after_ms } => {
                    assert_eq!(retry_after_ms, spec.retry_after_ms);
                    seen.1 = true;
                }
                Fault::Transient => seen.2 = true,
                Fault::Drop => seen.3 = true,
            }
            if d.extra_delay_ms > 0 {
                slow = true;
            }
        }
        assert_eq!(seen, (true, true, true, true), "every fault class fires");
        assert!(slow, "slow-start/jitter delay fires");
        assert!(
            spec.decide(0).extra_delay_ms >= 190,
            "full slow-start at n=0"
        );
        assert!(
            (0..1_000).any(|n| spec.decide(n).count_factor.is_some()),
            "noisy episodes occur"
        );
        assert!(
            (0..1_000).any(|n| spec.decide(n).count_factor.is_none()),
            "clean episodes occur"
        );
    }

    #[test]
    fn retry_policy_backoff_schedule() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 25,
            max_backoff_ms: 150,
        };
        assert_eq!(p.backoff_ms(0, None), 25);
        assert_eq!(p.backoff_ms(1, None), 50);
        assert_eq!(p.backoff_ms(2, None), 100);
        assert_eq!(p.backoff_ms(3, None), 150, "capped");
        assert_eq!(p.backoff_ms(0, Some(99)), 99, "Retry-After wins");
        assert_eq!(
            p.backoff_ms(0, Some(9_999)),
            150,
            "Retry-After still capped"
        );
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn count_noise_rewrites_only_the_banner() {
        let site = site(CountMode::Exact);
        let clean = site.fetch("/search?make=Toyota").unwrap();
        assert!(clean.contains("About 2 results"));
        let (noisy, rewritten) = rewrite_count_banner(&clean, 1.5);
        assert!(rewritten);
        assert!(noisy.contains("About 3 results"), "{noisy}");
        assert_eq!(
            noisy.replace("About 3", "About 2"),
            clean,
            "only the banner digits change"
        );
        // Pages without a banner pass through untouched.
        let bare = site.fetch("/search?make=Honda").unwrap();
        let (same, rewritten) = rewrite_count_banner(&bare.replace("class=\"count\"", "x"), 1.5);
        assert!(!rewritten);
        assert_eq!(same, bare.replace("class=\"count\"", "x"));
        // Large counts keep their thousands separators.
        let page = "<div class=\"count\">About 12,000 results</div>";
        let (doubled, _) = rewrite_count_banner(page, 2.0);
        assert_eq!(doubled, "<div class=\"count\">About 24,000 results</div>");
    }

    #[test]
    fn chaos_transport_injects_and_bills_deterministically() {
        let run = |seed: u64| {
            let t = ChaosTransport::new(
                site(CountMode::Exact),
                ChaosSpec {
                    seed,
                    latency_ms: 50,
                    throttle: 0.2,
                    retry_after_ms: 250,
                    fail: 0.1,
                    drop: 0.1,
                    slow_start_ms: 100,
                    slow_warmup: 10,
                    jitter_ms: 20,
                    count_noise: 0.5,
                },
            );
            let mut outcomes = Vec::new();
            for _ in 0..200 {
                outcomes.push(format!("{:?}", t.fetch("/search?make=Toyota")));
            }
            (outcomes, t.counters(), t.virtual_elapsed_ms())
        };
        let (a, counters, elapsed) = run(3);
        assert!(counters.throttles > 0, "{counters:?}");
        assert!(counters.transient_fails > 0, "{counters:?}");
        assert!(counters.drops > 0, "{counters:?}");
        assert!(counters.noisy_pages > 0, "{counters:?}");
        assert!(counters.extra_delay_ms > 0, "{counters:?}");
        assert!(
            elapsed >= 200 * 50,
            "single connection serializes: {elapsed}"
        );
        let (b, counters_b, elapsed_b) = run(3);
        assert_eq!(a, b, "same seed, same outcomes");
        assert_eq!(counters, counters_b);
        assert_eq!(elapsed, elapsed_b);
        let (c, ..) = run(4);
        assert_ne!(a, c, "different seed, different outcomes");
    }

    #[test]
    fn throttle_error_carries_retry_after() {
        let t = ChaosTransport::new(
            site(CountMode::Absent),
            ChaosSpec {
                throttle: 1.0,
                retry_after_ms: 777,
                ..ChaosSpec::default()
            },
        );
        let err = t.fetch("/search?make=Honda").unwrap_err();
        assert_eq!(
            err,
            InterfaceError::Throttled {
                retry_after_ms: 777
            }
        );
        assert!(err.is_transient());
    }

    #[test]
    fn faulted_requests_never_reach_the_backend() {
        let t = ChaosTransport::new(
            site(CountMode::Absent),
            ChaosSpec {
                drop: 1.0,
                ..ChaosSpec::default()
            },
        );
        for _ in 0..10 {
            assert!(t.fetch("/search?make=Honda").is_err());
        }
        assert_eq!(
            t.inner().backend().queries_issued(),
            0,
            "dropped requests must not charge the budget"
        );
    }

    #[test]
    fn virtual_backoff_advances_the_clock_without_sleeping() {
        let t = ChaosTransport::new(site(CountMode::Absent), ChaosSpec::default());
        let before = std::time::Instant::now();
        t.fetch("/search?make=Honda").unwrap();
        Transport::backoff(&t, 5_000);
        assert!(before.elapsed().as_millis() < 1_000, "must not sleep");
        assert!(t.virtual_elapsed_ms() >= 5_000, "backoff is billed");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Satellite: any seeded fault schedule is replay-deterministic —
        /// the same seed yields a byte-identical fault sequence, and the
        /// schedule actually depends on the seed.
        #[test]
        fn fault_schedule_is_replay_deterministic(seed in 0u64..1_000_000, len in 1u64..512) {
            let spec = ChaosSpec {
                seed,
                throttle: 0.2,
                fail: 0.15,
                drop: 0.1,
                slow_start_ms: 300,
                slow_warmup: 40,
                jitter_ms: 25,
                count_noise: 0.4,
                ..ChaosSpec::default()
            };
            let render = |spec: &ChaosSpec| -> Vec<u8> {
                let mut bytes = Vec::new();
                for n in 0..len {
                    bytes.extend_from_slice(format!("{:?};", spec.decide(n)).as_bytes());
                }
                bytes
            };
            let first = render(&spec);
            proptest::prop_assert_eq!(&first, &render(&spec), "replay must be byte-identical");
            let reseeded = ChaosSpec { seed: seed ^ 0xDEAD_BEEF, ..spec };
            if len >= 64 {
                proptest::prop_assert_ne!(&first, &render(&reseeded), "seed must matter");
            }
        }
    }
}
