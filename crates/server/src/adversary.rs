//! [`Adversary`]: seeded fault injection in front of any mounted site.
//!
//! The server half of the chaos layer (the client half is
//! [`ChaosTransport`](hdsampler_webform::ChaosTransport), which injects
//! the same schedule wire-free). Wrapping a [`SiteBehavior`] in an
//! `Adversary` turns a well-behaved front door into a hostile one:
//!
//! * **drop** — the connection is severed without writing a byte
//!   ([`Response::sever`]; the server counts it as a dropped connection);
//! * **throttle** — `429 Too Many Requests` with `Retry-After` (seconds)
//!   and `x-hds-retry-after-ms` (exact), *without* the `x-hds-issued`
//!   budget header — so clients can tell "back off" from "go away";
//! * **transient** — `503 Service Unavailable`;
//! * **slow-start / jitter** — real (capped) waits before the answer
//!   reaches the wire, carried as [`Response::delay`] so the server parks
//!   the connection on its timer heap instead of sleeping a serve loop;
//! * **count-noise** — successful pages get their "About N results"
//!   banner rewritten by the episode's factor.
//!
//! The schedule is a pure function of `(spec.seed, request index)`
//! ([`ChaosSpec::decide`]): restarting the server with the same spec
//! replays the identical fault sequence. Faulted requests never reach the
//! wrapped site, so the backend's query budget is only charged for
//! requests actually served — mirroring the client-side decorator's
//! accounting exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hdsampler_webform::chaos::rewrite_count_banner;
use hdsampler_webform::{ChaosCounters, ChaosSpec, Fault};

use crate::http::Response;
use crate::site::{SiteBehavior, ERROR_HEADER};

/// Longest single injected delay: chaos must slow a request down, not
/// hold a connection for the whole keep-alive window.
const MAX_INJECT_SLEEP: Duration = Duration::from_millis(2_000);

/// Fault-injecting decorator over any [`SiteBehavior`].
#[derive(Debug)]
pub struct Adversary<S> {
    inner: S,
    spec: ChaosSpec,
    /// Global request index: position in the fault schedule.
    requests: AtomicU64,
    throttles: AtomicU64,
    transient_fails: AtomicU64,
    drops: AtomicU64,
    noisy_pages: AtomicU64,
    extra_delay_ms: AtomicU64,
}

impl<S: SiteBehavior> Adversary<S> {
    /// Wrap `inner` with the fault schedule `spec`.
    pub fn new(inner: S, spec: ChaosSpec) -> Self {
        Adversary {
            inner,
            spec,
            requests: AtomicU64::new(0),
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

    /// The wrapped site.
    pub fn inner(&self) -> &S {
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
}

impl<S: SiteBehavior> SiteBehavior for Adversary<S> {
    fn get(&self, target: &str) -> Response {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        let d = self.spec.decide(n);
        self.extra_delay_ms
            .fetch_add(d.extra_delay_ms, Ordering::Relaxed);
        // Real wire, real wait — but capped, so a generous virtual spec
        // cannot hold a connection past the keep-alive window.
        let delay =
            Duration::from_millis(self.spec.latency_ms + d.extra_delay_ms).min(MAX_INJECT_SLEEP);
        let mut resp = match d.fault {
            Fault::Drop => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                Response::sever()
            }
            Fault::Throttle { retry_after_ms } => {
                self.throttles.fetch_add(1, Ordering::Relaxed);
                let mut resp = Response::text(
                    429,
                    "Too Many Requests",
                    format!("429 rate limited: retry after {retry_after_ms} ms"),
                );
                resp.extra_headers
                    .push((ERROR_HEADER.into(), "throttled".into()));
                // Standard coarse header plus the exact interval; never
                // `x-hds-issued`, which would read as budget exhaustion.
                resp.extra_headers.push((
                    "Retry-After".into(),
                    retry_after_ms.div_ceil(1_000).max(1).to_string(),
                ));
                resp.extra_headers
                    .push(("x-hds-retry-after-ms".into(), retry_after_ms.to_string()));
                resp
            }
            Fault::Transient => {
                self.transient_fails.fetch_add(1, Ordering::Relaxed);
                let mut resp = Response::text(
                    503,
                    "Service Unavailable",
                    "503 service unavailable (injected)".into(),
                );
                resp.extra_headers
                    .push((ERROR_HEADER.into(), "transient".into()));
                resp
            }
            Fault::None => {
                let mut resp = self.inner.get(target);
                if let Some(factor) = d.count_factor {
                    if resp.status == 200 {
                        if let Ok(page) = std::str::from_utf8(&resp.body) {
                            let (noisy, rewritten) = rewrite_count_banner(page, factor);
                            if rewritten {
                                self.noisy_pages.fetch_add(1, Ordering::Relaxed);
                                resp.body = noisy.into_bytes();
                            }
                        }
                    }
                }
                resp
            }
        };
        resp.delay = delay;
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_hidden_db::{CountMode, HiddenDb};
    use hdsampler_model::{Attribute, FormInterface, SchemaBuilder, Tuple};
    use hdsampler_webform::LocalSite;
    use std::sync::Arc;

    fn site() -> LocalSite<HiddenDb> {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "Honda"]).unwrap())
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema))
            .result_limit(1)
            .count_mode(CountMode::Exact);
        for v in [0u16, 0, 1] {
            b.push(&Tuple::new(&schema, vec![v], vec![]).unwrap())
                .unwrap();
        }
        LocalSite::new(b.finish(), schema)
    }

    #[test]
    fn throttle_responses_are_retryable_not_budget() {
        let adv = Adversary::new(
            site(),
            ChaosSpec {
                throttle: 1.0,
                retry_after_ms: 250,
                ..ChaosSpec::default()
            },
        );
        let resp = adv.get("/search?make=Honda");
        assert_eq!(resp.status, 429);
        let header = |name: &str| {
            resp.extra_headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(header(ERROR_HEADER), Some("throttled"));
        assert_eq!(header("retry-after"), Some("1"), "ceil(250ms) = 1 s");
        assert_eq!(header("x-hds-retry-after-ms"), Some("250"));
        assert_eq!(
            header(crate::site::ISSUED_HEADER),
            None,
            "a throttle must never look like budget exhaustion"
        );
        assert_eq!(adv.counters().throttles, 1);
    }

    #[test]
    fn drops_sever_and_faults_spare_the_backend() {
        let adv = Adversary::new(
            site(),
            ChaosSpec {
                drop: 1.0,
                ..ChaosSpec::default()
            },
        );
        for _ in 0..5 {
            assert!(adv.get("/search?make=Honda").drop_connection);
        }
        assert_eq!(adv.counters().drops, 5);
        assert_eq!(
            adv.inner().backend().queries_issued(),
            0,
            "faulted requests never reach the backend"
        );
    }

    #[test]
    fn transient_faults_answer_503() {
        let adv = Adversary::new(
            site(),
            ChaosSpec {
                fail: 1.0,
                ..ChaosSpec::default()
            },
        );
        let resp = adv.get("/search?make=Honda");
        assert_eq!(resp.status, 503);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(n, v)| n == ERROR_HEADER && v == "transient"));
        assert_eq!(adv.counters().transient_fails, 1);
    }

    #[test]
    fn count_noise_rewrites_successful_pages_only() {
        let spec = ChaosSpec {
            count_noise: 1.0,
            seed: 3,
            ..ChaosSpec::default()
        };
        let factor = spec.decide(0).count_factor.expect("noise gate open");
        let adv = Adversary::new(site(), spec);
        let clean = adv.inner().get("/search?make=Toyota");
        let noisy = adv.get("/search?make=Toyota");
        assert_eq!(noisy.status, 200);
        let clean = String::from_utf8(clean.body).unwrap();
        let noisy = String::from_utf8(noisy.body).unwrap();
        let expect = (2.0 * factor).round() as u64;
        assert!(
            noisy.contains(&format!("About {expect} results")),
            "banner rewritten by {factor}: {noisy}"
        );
        assert_eq!(
            clean.replace("About 2", ""),
            noisy.replace(&format!("About {expect}"), ""),
            "only the banner changes"
        );
        assert_eq!(adv.counters().noisy_pages, 1);
        // Error pages pass through untouched.
        let err = adv.get("/nosuchpage");
        assert_eq!(err.status, 404);
    }

    #[test]
    fn delays_ride_on_the_response_without_blocking() {
        let adv = Adversary::new(
            site(),
            ChaosSpec {
                latency_ms: 60_000,
                drop: 1.0,
                ..ChaosSpec::default()
            },
        );
        let start = std::time::Instant::now();
        let resp = adv.get("/search?make=Honda");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the server holds the delay; nothing sleeps here"
        );
        assert!(resp.drop_connection, "a sever is held like any answer");
        assert_eq!(resp.delay, MAX_INJECT_SLEEP, "capped");
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let spec = ChaosSpec {
            seed: 9,
            throttle: 0.3,
            fail: 0.2,
            drop: 0.1,
            ..ChaosSpec::default()
        };
        let run = || {
            let adv = Adversary::new(site(), spec.clone());
            let seq: Vec<(u16, bool)> = (0..100)
                .map(|_| {
                    let r = adv.get("/search?make=Honda");
                    (r.status, r.drop_connection)
                })
                .collect();
            (seq, adv.counters())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.throttles > 0 && ca.transient_fails > 0 && ca.drops > 0);
    }
}
