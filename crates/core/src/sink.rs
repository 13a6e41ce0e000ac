//! Streaming sample observation: the [`SampleSink`] trait.
//!
//! The paper's system is explicitly incremental — "the Sample Generator,
//! Sample Processor and Output module generate samples and update the
//! final sample set and histograms till the desired number of samples are
//! obtained" (§3.4). A [`SampleSink`] is the Output Module's intake: every
//! execution path (a [`SamplingSession`](crate::session::SamplingSession)
//! run and the webform fleet driver) emits each accepted sample into the
//! attached sinks *as it is accepted*, so
//! estimators can maintain live state mid-run instead of waiting for the
//! session to end.
//!
//! ## Contract
//!
//! * [`SampleSink::observe`] receives every accepted sample exactly once,
//!   in acceptance order, wrapped in a [`SampleEvent`] that carries the
//!   sample itself (row + importance weight), its site/walker provenance
//!   and the run's running counters.
//! * [`SampleSink::fork`] produces a sink for a parallel worker (or a
//!   concurrently driven site). Accumulating sinks return a fresh empty
//!   sink of the same type; sinks wrapping shared state (a live display, a
//!   channel) may return another handle to the same state.
//! * [`SampleSink::merge`] folds a forked sink back into its parent —
//!   mirroring [`SamplerStats::merge_worker`](crate::stats::SamplerStats::merge_worker)
//!   for counters. For accumulating sinks the merged state must equal the
//!   state produced by observing both streams into one sink; sharing
//!   sinks make it a no-op. Merging a sink of a different concrete type
//!   panics.
//!
//! Order caveat: float accumulation is not associative, so a fork/merge
//! regrouping may differ from single-stream observation in the last ulp.
//! Sequential observation is bit-exact — the batch constructors in
//! `hdsampler-estimator` are thin wrappers over it, which is what makes
//! "online snapshot ≡ post-hoc batch estimate" hold byte-for-byte.

use std::any::Any;

use crate::sample::Sample;

/// One accepted sample, as delivered to every attached [`SampleSink`].
#[derive(Debug, Clone, Copy)]
pub struct SampleEvent<'a> {
    /// The accepted sample: scraped row, importance weight, provenance
    /// metadata.
    pub sample: &'a Sample,
    /// Index of the site that produced it (0 for single-site runs).
    pub site: usize,
    /// Index of the walker that produced it within its site.
    pub walker: usize,
    /// Samples collected by the emitting run *including this one* (for a
    /// fleet driver: collected at this site).
    pub collected: usize,
    /// The run's sample target (per site for fleet drivers).
    pub target: usize,
    /// Queries charged at the interface so far (running
    /// [`SamplerStats::queries_issued`](crate::stats::SamplerStats)
    /// snapshot — the live cost figure a progress display wants).
    pub queries: u64,
    /// Logical query requests so far, cache hits included (running
    /// `SamplerStats::requests`); `requests - queries` is the history
    /// cache's savings.
    pub requests: u64,
}

/// A streaming observer of accepted samples.
///
/// Implementors are owned (`'static`) and `Send` so drivers can move
/// forked sinks across worker threads.
pub trait SampleSink: Send + 'static {
    /// Observe one accepted sample.
    fn observe(&mut self, event: &SampleEvent<'_>);

    /// A sink for a parallel worker; see the module docs for semantics.
    fn fork(&self) -> Box<dyn SampleSink>;

    /// Fold a [`fork`](SampleSink::fork)ed sink back in.
    ///
    /// # Panics
    /// Panics if `other` is not the same concrete type as `self`.
    fn merge(&mut self, other: Box<dyn SampleSink>);

    /// The sink as [`Any`], for snapshot retrieval through a trait object.
    fn as_any(&self) -> &dyn Any;

    /// Consume the boxed sink as [`Any`] (the `merge` implementation's
    /// down-casting hook).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Deliver one event to every sink in a set (helper shared by the
/// execution paths).
pub fn observe_all(sinks: &mut [&mut dyn SampleSink], event: &SampleEvent<'_>) {
    for sink in sinks.iter_mut() {
        sink.observe(event);
    }
}

/// Down-cast a merged-in sink to the expected concrete type, with a
/// uniform panic message (helper for `merge` implementations).
pub fn merged<T: SampleSink>(other: Box<dyn SampleSink>) -> Box<T> {
    other
        .into_any()
        .downcast::<T>()
        .expect("SampleSink::merge: forked sink has a different concrete type")
}

/// A sink that discards everything (the default when nothing is attached).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl SampleSink for NullSink {
    fn observe(&mut self, _: &SampleEvent<'_>) {}

    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(NullSink)
    }

    fn merge(&mut self, other: Box<dyn SampleSink>) {
        let _ = merged::<NullSink>(other);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A sink that collects the observed stream into a
/// [`SampleSet`](crate::sample::SampleSet), in observation order — the
/// streaming face of the Sample Processor's output store.
#[derive(Debug, Clone, Default)]
pub struct SampleSetSink {
    set: crate::sample::SampleSet,
}

impl SampleSetSink {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The samples observed so far, in observation order.
    pub fn set(&self) -> &crate::sample::SampleSet {
        &self.set
    }

    /// Consume the collector.
    pub fn into_set(self) -> crate::sample::SampleSet {
        self.set
    }
}

impl SampleSink for SampleSetSink {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        self.set.push(event.sample.clone());
    }

    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(SampleSetSink::new())
    }

    fn merge(&mut self, other: Box<dyn SampleSink>) {
        let other = merged::<SampleSetSink>(other);
        self.set.extend(other.set.samples().iter().cloned());
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleMeta;
    use hdsampler_model::Row;

    fn sample(key: u64) -> Sample {
        Sample {
            row: Row::new(key, vec![0], vec![]),
            weight: 1.0,
            meta: SampleMeta::default(),
        }
    }

    fn event<'a>(s: &'a Sample, collected: usize) -> SampleEvent<'a> {
        SampleEvent {
            sample: s,
            site: 0,
            walker: 0,
            collected,
            target: 10,
            queries: 0,
            requests: 0,
        }
    }

    #[test]
    fn sample_set_sink_collects_in_order() {
        let mut sink = SampleSetSink::new();
        let (a, b) = (sample(1), sample(2));
        sink.observe(&event(&a, 1));
        sink.observe(&event(&b, 2));
        assert_eq!(sink.set().keys(), vec![1, 2]);
    }

    #[test]
    fn fork_merge_concatenates_worker_streams() {
        let mut parent = SampleSetSink::new();
        let a = sample(1);
        parent.observe(&event(&a, 1));
        let mut w0 = parent.fork();
        let mut w1 = parent.fork();
        let (b, c) = (sample(2), sample(3));
        w0.observe(&event(&b, 2));
        w1.observe(&event(&c, 3));
        parent.merge(w0);
        parent.merge(w1);
        assert_eq!(parent.set().keys(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "different concrete type")]
    fn merging_a_mismatched_sink_panics() {
        let mut sink = SampleSetSink::new();
        sink.merge(Box::new(NullSink));
    }

    #[test]
    fn observe_all_fans_out() {
        let mut a = SampleSetSink::new();
        let mut b = SampleSetSink::new();
        let s = sample(9);
        {
            let mut sinks: Vec<&mut dyn SampleSink> = vec![&mut a, &mut b];
            observe_all(&mut sinks, &event(&s, 1));
        }
        assert_eq!(a.set().len(), 1);
        assert_eq!(b.set().len(), 1);
    }
}
