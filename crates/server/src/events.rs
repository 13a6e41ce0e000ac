//! The `/events` telemetry plane: an in-process broadcast hub bridged
//! onto a chunked SSE stream, plus the [`SampleSink`] that feeds it.
//!
//! [`EventHub`] is deliberately dumb: a fan-out of pre-framed SSE
//! payloads over `std::sync::mpsc` channels, pruned lazily on publish.
//! Each frame is built once and shared (`Arc<str>`): a burst sits in
//! memory once however many watchers it reaches. Two producers feed it — [`BridgeSink`] mirrors every
//! accepted sample a local [`SampleSink`] sees (so a remote
//! `--watch` over `/events` observes exactly what a local progress
//! display would), and the server's connection loop publishes
//! per-request [`TraceEvent`]s — and the `/events` route drains one
//! subscription per watcher until the server stops.

use std::any::Any;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use hdsampler_core::{merged, SampleEvent, SampleSink, TraceEvent};
use hdsampler_webform::telemetry::{event_json, sample_event_json};

/// A broadcast hub of server-sent-event frames.
///
/// Publishing with no subscribers is free (no frame is even built), so
/// the hub can sit permanently in the request path.
#[derive(Debug, Default)]
pub struct EventHub {
    subs: Mutex<Vec<Sender<Arc<str>>>>,
}

impl EventHub {
    /// A hub with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a subscription receiving every frame published from now on.
    ///
    /// The queue is unbounded on purpose: a watcher that reads keeps up
    /// with any burst, and the reactor sheds one that stops reading by the
    /// backlog of its own output, not by the hub's queue.
    pub fn subscribe(&self) -> Receiver<Arc<str>> {
        let (tx, rx) = channel();
        self.subs.lock().expect("hub lock").push(tx);
        rx
    }

    /// Live subscriptions (dead ones linger until the next publish).
    pub fn subscribers(&self) -> usize {
        self.subs.lock().expect("hub lock").len()
    }

    /// Broadcast one SSE frame (`event: <event>` + `data: <data>`),
    /// dropping subscribers whose receiver is gone.
    pub fn publish_frame(&self, event: &str, data: &str) {
        let mut subs = self.subs.lock().expect("hub lock");
        if subs.is_empty() {
            return;
        }
        let frame: Arc<str> = format!("event: {event}\ndata: {data}\n\n").into();
        subs.retain(|tx| tx.send(Arc::clone(&frame)).is_ok());
    }

    /// Broadcast an accepted-sample event in its wire form.
    pub fn publish_sample(&self, event: &SampleEvent<'_>) {
        self.publish_frame("sample", &sample_event_json(event));
    }

    /// Broadcast a trace event (the server's per-request records).
    pub fn publish_trace(&self, event: &TraceEvent) {
        self.publish_frame("trace", &event_json(event));
    }
}

/// A [`SampleSink`] that forwards every accepted sample to an
/// [`EventHub`] — the bridge between a local sampling run and its
/// remote `/events` watchers. Forks share the hub, so parallel drivers
/// stream from every worker.
#[derive(Debug, Clone)]
pub struct BridgeSink {
    hub: Arc<EventHub>,
}

impl BridgeSink {
    /// A sink publishing into `hub`.
    pub fn new(hub: Arc<EventHub>) -> Self {
        BridgeSink { hub }
    }
}

impl SampleSink for BridgeSink {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        self.hub.publish_sample(event);
    }

    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(self.clone())
    }

    fn merge(&mut self, other: Box<dyn SampleSink>) {
        // Shared-hub sink: forks already published live; only typecheck.
        let _ = merged::<BridgeSink>(other);
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
    use hdsampler_core::{Sample, SampleMeta};
    use hdsampler_model::Row;

    fn sample() -> Sample {
        Sample {
            row: Row::new(9, vec![0], vec![]),
            weight: 1.0,
            meta: SampleMeta::default(),
        }
    }

    #[test]
    fn hub_broadcasts_to_every_subscriber_and_prunes_dead_ones() {
        let hub = EventHub::new();
        let a = hub.subscribe();
        let b = hub.subscribe();
        hub.publish_frame("sample", "{}");
        assert_eq!(&*a.try_recv().unwrap(), "event: sample\ndata: {}\n\n");
        assert_eq!(&*b.try_recv().unwrap(), "event: sample\ndata: {}\n\n");
        drop(a);
        hub.publish_frame("trace", "x");
        assert_eq!(hub.subscribers(), 1, "dead subscriber pruned on publish");
        assert!(b.try_recv().unwrap().starts_with("event: trace\n"));
    }

    #[test]
    fn subscribers_share_one_copy_of_each_frame() {
        let hub = EventHub::new();
        let (a, b) = (hub.subscribe(), hub.subscribe());
        hub.publish_frame("blob", &"x".repeat(1 << 16));
        let (fa, fb) = (a.try_recv().unwrap(), b.try_recv().unwrap());
        assert!(Arc::ptr_eq(&fa, &fb), "a frame reaches memory once");
    }

    #[test]
    fn bridge_sink_mirrors_samples_through_forks() {
        let hub = Arc::new(EventHub::new());
        let rx = hub.subscribe();
        let mut sink = BridgeSink::new(Arc::clone(&hub));
        let s = sample();
        let ev = SampleEvent {
            sample: &s,
            site: 0,
            walker: 1,
            collected: 1,
            target: 2,
            queries: 3,
            requests: 4,
        };
        let mut forked = sink.fork();
        forked.observe(&ev);
        sink.merge(forked);
        sink.observe(&ev);
        let frames: Vec<Arc<str>> = rx.try_iter().collect();
        assert_eq!(frames.len(), 2, "fork and parent share the hub");
        assert!(frames[0].contains("\"collected\":1"));
    }
}
