//! Incremental sampling sessions (§3.4).
//!
//! "The entire system works in an incremental fashion where the Sample
//! Generator, Sample Processor and Output module generate samples and
//! updates the final sample set and histograms till the desired number of
//! samples are obtained. A kill switch has been included to facilitate
//! stopping the sampling procedure in case the user is satisfied with the
//! samples extracted thus far."
//!
//! [`SamplingSession`] drives any [`Sampler`] toward a target count,
//! surfacing progress through an event callback (the AJAX live-update path
//! of the original demo) and honouring a shared kill switch. Many walkers
//! over many sites run cooperatively on one thread through
//! `hdsampler_webform::RunPlan`; this session is the blocking
//! single-sampler loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::sample::{Sample, SampleSet, Sampler, SamplerError};
use crate::sink::{observe_all, SampleEvent, SampleSink};
use crate::stats::SamplerStats;

/// Why a session ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// The requested number of samples was collected.
    TargetReached,
    /// The kill switch was flipped.
    Killed,
    /// The site's query budget ran out.
    BudgetExhausted,
    /// The sampler failed for another reason.
    Failed(SamplerError),
}

/// Progress notifications emitted while a session runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A sample was accepted (carries the sample itself and the running
    /// total — the AJAX live-update payload).
    SampleAccepted {
        /// The accepted sample.
        sample: Sample,
        /// Samples collected so far (including this one).
        collected: usize,
        /// Target count.
        target: usize,
    },
    /// The session stopped.
    Stopped(StopReason),
}

/// Result of a completed session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The collected samples (possibly fewer than the target).
    pub samples: SampleSet,
    /// Why the session ended.
    pub reason: StopReason,
    /// Final sampler statistics.
    pub stats: SamplerStats,
}

/// An incremental sampling run with kill switch, progress events and
/// streaming [`SampleSink`] observers.
pub struct SamplingSession {
    target: usize,
    site: usize,
    kill: Arc<AtomicBool>,
}

impl SamplingSession {
    /// Session targeting `target` samples.
    pub fn new(target: usize) -> Self {
        SamplingSession {
            target,
            site: 0,
            kill: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Label every emitted [`SampleEvent`] with this site index
    /// (default 0).
    pub fn with_site(mut self, site: usize) -> Self {
        self.site = site;
        self
    }

    /// Handle that stops the session from another thread (the demo UI's
    /// kill switch).
    pub fn kill_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.kill)
    }

    /// Drive `sampler` until the target, the kill switch, or an error.
    /// `on_event` observes progress.
    pub fn run<S: Sampler>(
        &self,
        sampler: &mut S,
        on_event: impl FnMut(&SessionEvent),
    ) -> SessionOutcome {
        self.run_observed(sampler, &mut [], on_event)
    }

    /// [`SamplingSession::run`], additionally streaming every accepted
    /// sample into `sinks` at the moment it is collected. The sinks' final
    /// state describes exactly the outcome's sample set, in order.
    pub fn run_observed<S: Sampler>(
        &self,
        sampler: &mut S,
        sinks: &mut [&mut dyn SampleSink],
        mut on_event: impl FnMut(&SessionEvent),
    ) -> SessionOutcome {
        let mut samples = SampleSet::new();
        let reason = loop {
            if samples.len() >= self.target {
                break StopReason::TargetReached;
            }
            if self.kill.load(Ordering::Relaxed) {
                break StopReason::Killed;
            }
            match sampler.next_sample() {
                Ok(s) => {
                    let collected = samples.len() + 1;
                    let stats = sampler.stats();
                    observe_all(
                        sinks,
                        &SampleEvent {
                            sample: &s,
                            site: self.site,
                            walker: 0,
                            collected,
                            target: self.target,
                            queries: stats.queries_issued,
                            requests: stats.requests,
                        },
                    );
                    on_event(&SessionEvent::SampleAccepted {
                        sample: s.clone(),
                        collected,
                        target: self.target,
                    });
                    samples.push(s);
                }
                Err(SamplerError::BudgetExhausted { .. }) => {
                    break StopReason::BudgetExhausted;
                }
                Err(e) => break StopReason::Failed(e),
            }
        };
        on_event(&SessionEvent::Stopped(reason.clone()));
        SessionOutcome {
            samples,
            reason,
            stats: sampler.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplerConfig;
    use crate::executor::DirectExecutor;
    use crate::hds::HdsSampler;
    use hdsampler_workload::figure1_db;

    #[test]
    fn runs_to_target_with_events() {
        let db = figure1_db(1);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(1)).unwrap();
        let session = SamplingSession::new(25);
        let mut accepted_events = 0;
        let out = session.run(&mut s, |e| {
            if matches!(e, SessionEvent::SampleAccepted { .. }) {
                accepted_events += 1;
            }
        });
        assert_eq!(out.reason, StopReason::TargetReached);
        assert_eq!(out.samples.len(), 25);
        assert_eq!(accepted_events, 25);
        assert_eq!(out.stats.accepted, 25);
    }

    #[test]
    fn kill_switch_stops_early() {
        let db = figure1_db(1);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(2)).unwrap();
        let session = SamplingSession::new(1_000_000);
        let kill = session.kill_switch();
        let mut n = 0;
        let out = session.run(&mut s, |e| {
            if matches!(e, SessionEvent::SampleAccepted { .. }) {
                n += 1;
                if n == 10 {
                    kill.store(true, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(out.reason, StopReason::Killed);
        assert_eq!(out.samples.len(), 10, "stops at the kill point");
    }

    #[test]
    fn budget_exhaustion_yields_partial_results() {
        use hdsampler_hidden_db::HiddenDb;
        use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(std::sync::Arc::clone(&schema))
            .result_limit(1)
            .query_budget(30);
        for vals in [[0u16, 0], [0, 1], [1, 0], [1, 1]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        let db = b.finish();
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(3)).unwrap();
        let session = SamplingSession::new(10_000);
        let out = session.run(&mut s, |_| {});
        assert_eq!(out.reason, StopReason::BudgetExhausted);
        assert!(!out.samples.is_empty(), "partial results survive");
        assert!(out.samples.len() < 10_000);
    }

    #[test]
    fn observed_run_streams_every_collected_sample() {
        use crate::sink::{SampleSetSink, SampleSink as _};
        let db = figure1_db(1);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(4)).unwrap();
        let session = SamplingSession::new(30).with_site(7);
        let mut collector = SampleSetSink::new();
        let mut events = Vec::new();
        let out = {
            let mut sinks: Vec<&mut dyn crate::sink::SampleSink> = vec![&mut collector];
            session.run_observed(&mut s, &mut sinks, |e| {
                if let SessionEvent::SampleAccepted {
                    sample, collected, ..
                } = e
                {
                    events.push((sample.row.key, *collected));
                }
            })
        };
        assert_eq!(out.reason, StopReason::TargetReached);
        // The sink saw exactly the collected set, in order.
        assert_eq!(collector.set().keys(), out.samples.keys());
        // The session event carries the sample payload and running count.
        assert_eq!(
            events,
            out.samples
                .keys()
                .into_iter()
                .zip(1..=30)
                .collect::<Vec<_>>()
        );
        // fork/merge of the set sink concatenates.
        let forked = collector.fork();
        collector.merge(forked);
        assert_eq!(collector.set().len(), 30);
    }
}
