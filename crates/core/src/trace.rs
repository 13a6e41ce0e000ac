//! Structured tracing and metrics: the observability subsystem.
//!
//! HDSampler's premise is inferring structure from per-query
//! observations, so the reproduction observes *itself* with the same
//! rigor: the fleet driver emits typed [`TraceEvent`]s (walk steps, cache
//! hits, wire submits/completions, backoff sleeps, steals and stalls)
//! into attached [`TraceSink`]s, which a run attaches beside its
//! [`SampleSink`](crate::sink::SampleSink)s, so one plan carries both the
//! sample stream and its latency attribution.
//!
//! Determinism contract: on virtual wires every timestamp in a
//! [`TraceEvent`] is a virtual-clock reading, never wall time, so a
//! seeded run journals bit-identically across repetitions — traces
//! replay like everything else in this repo.
//!
//! Two consumers ship here:
//!
//! * [`TraceLog`] — an accumulating sink whose event vector becomes the
//!   JSONL journal (`--trace <path>`).
//! * [`MetricsSink`] — aggregates the same events into a shared
//!   [`MetricsRegistry`] of counters and fixed-bucket latency histograms
//!   (queue/service/backoff, split per connection), rendered in
//!   Prometheus text exposition for the `/metrics` endpoint.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One observability event. Flat on purpose — the vendored JSON layer
/// round-trips plain structs, and a flat record is what line-oriented
/// trace tooling wants anyway. Fields that do not apply to a given
/// `kind` are zero / empty.
///
/// | kind | detail | meaning |
/// |---|---|---|
/// | `walk` | `failed` | a walker's machine step failed terminally |
/// | `cache` | `hit` / `miss` | history-cache classification outcome |
/// | `l2` | `load` / `hit` / `miss` / `put` | persistent L2 fact-log tier activity |
/// | `wire` | `submit` / `complete` | a query left for / returned from the wire |
/// | `retry` | `backoff` | transient failure; `dur_ms` is the backoff wait |
/// | `stall` | `force` | coop driver forced the earliest pending fetch |
/// | `steal` | `s{donor}->s{receiver}` | work-stealing rebalance |
/// | `sample` | | an accepted sample; `seq` is the running count |
/// | `request` | target path | server-side request; `code` is the status |
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event class (see table above).
    pub kind: String,
    /// Event sub-class or free-form label.
    pub detail: String,
    /// Correlation tag (the `x-hds-trace` id on `request` events).
    pub tag: String,
    /// Span id tying a `wire` submit to its completion (0 when n/a).
    pub span: u64,
    /// Site index.
    pub site: u64,
    /// Walker index within the site.
    pub walker: u64,
    /// Connection index.
    pub conn: u64,
    /// Ordinal (running sample count, or server request number).
    pub seq: u64,
    /// Numeric payload (HTTP status on `request` events).
    pub code: u64,
    /// Virtual-clock timestamp of the event, in wire milliseconds.
    pub at_ms: u64,
    /// Duration: wire submit→complete, backoff wait, request service.
    pub dur_ms: u64,
    /// Portion of `dur_ms` spent queued behind the connection.
    pub queue_ms: u64,
}

/// A streaming observer of trace events, the sibling of
/// [`SampleSink`](crate::sink::SampleSink). One driver thread emits every
/// event of a run into each attached sink in emission order, so a seeded
/// run observes the same sequence every time.
pub trait TraceSink: Send + 'static {
    /// Observe one event.
    fn observe(&mut self, event: &TraceEvent);

    /// The sink as [`Any`], for snapshot retrieval through a trait object.
    fn as_any(&self) -> &dyn Any;
}

/// Deliver one event to every sink in a set.
pub fn trace_all(sinks: &mut [&mut dyn TraceSink], event: &TraceEvent) {
    for sink in sinks.iter_mut() {
        sink.observe(event);
    }
}

/// A trace sink that discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTraceSink;

impl TraceSink for NullTraceSink {
    fn observe(&mut self, _: &TraceEvent) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An accumulating trace sink: the in-memory face of the JSONL journal.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events observed so far, in observation order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drain the log.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for TraceLog {
    fn observe(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A driver's handle on its attached trace sinks: fans events out and
/// hands out span ids. When no sinks are attached [`Tracer::enabled`] is
/// false and callers skip event construction entirely, so tracing
/// disabled costs a branch, not an allocation.
pub struct Tracer<'r, 's> {
    sinks: &'r mut [&'s mut dyn TraceSink],
    next_span: u64,
}

impl<'r, 's> Tracer<'r, 's> {
    /// Tracer over `sinks` (possibly empty).
    pub fn new(sinks: &'r mut [&'s mut dyn TraceSink]) -> Self {
        Tracer {
            sinks,
            next_span: 0,
        }
    }

    /// Whether any sink is attached — gate event construction on this.
    pub fn enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// A fresh span id (1-based; deterministic: a plain counter).
    pub fn next_span(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span
    }

    /// Deliver `event` to every attached sink.
    pub fn emit(&mut self, event: &TraceEvent) {
        trace_all(self.sinks, event);
    }
}

/// Upper bounds (inclusive, in wire milliseconds) of the fixed latency
/// histogram buckets; everything above the last bound lands in `+Inf`.
pub const LATENCY_BUCKETS_MS: [u64; 12] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000];

#[derive(Debug, Clone, Default)]
struct Histogram {
    buckets: [u64; LATENCY_BUCKETS_MS.len()],
    sum: u64,
    count: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        for (i, bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
            if value <= *bound {
                self.buckets[i] += 1;
            }
        }
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A shared registry of named counters, gauges and fixed-bucket latency
/// histograms. Cloning shares the underlying storage (the registry is a
/// handle), so a run's sink and a serving thread all see one state.
///
/// Names may carry baked-in Prometheus labels (`name{conn="0"}`);
/// [`MetricsRegistry::render`] splices histogram suffixes and the `le`
/// label in correctly either way. Rendering iterates `BTreeMap`s, so the
/// exposition text is deterministic for a given state.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name`, registering it at 0 first if new.
    pub fn add(&self, name: &str, delta: u64) {
        *self
            .inner
            .counters
            .lock()
            .entry(name.to_string())
            .or_insert(0) += delta;
    }

    /// Increment counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.inner.gauges.lock().insert(name.to_string(), value);
    }

    /// Record one observation into histogram `name`.
    pub fn observe_ms(&self, name: &str, value: u64) {
        self.inner
            .histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Render the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, value) in self.inner.counters.lock().iter() {
            type_line(&mut out, &mut last_family, name, "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        last_family.clear();
        for (name, value) in self.inner.gauges.lock().iter() {
            type_line(&mut out, &mut last_family, name, "gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        last_family.clear();
        for (name, hist) in self.inner.histograms.lock().iter() {
            type_line(&mut out, &mut last_family, name, "histogram");
            let (base, labels) = split_labels(name);
            for (i, bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{} {}",
                    labeled(base, labels, &format!("le=\"{bound}\""), "_bucket"),
                    hist.buckets[i]
                );
            }
            let _ = writeln!(
                out,
                "{} {}",
                labeled(base, labels, "le=\"+Inf\"", "_bucket"),
                hist.count
            );
            let _ = writeln!(out, "{} {}", labeled(base, labels, "", "_sum"), hist.sum);
            let _ = writeln!(
                out,
                "{} {}",
                labeled(base, labels, "", "_count"),
                hist.count
            );
        }
        out
    }
}

/// Emit a `# TYPE` header when the metric family changes.
fn type_line(out: &mut String, last_family: &mut String, name: &str, kind: &str) {
    let family = split_labels(name).0;
    if family != last_family {
        let _ = writeln!(out, "# TYPE {family} {kind}");
        last_family.clear();
        last_family.push_str(family);
    }
}

/// Split `name{labels}` into `(name, labels)`; labels is `""` when bare.
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// Build `base{suffix}{existing,extra}` with correct comma/brace
/// handling for histogram series names.
fn labeled(base: &str, existing: &str, extra: &str, suffix: &str) -> String {
    let mut labels = existing.to_string();
    if !extra.is_empty() {
        if !labels.is_empty() {
            labels.push(',');
        }
        labels.push_str(extra);
    }
    if labels.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{suffix}{{{labels}}}")
    }
}

/// Escape a string for use inside a Prometheus label value.
pub fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Parse a Prometheus text exposition back into `series name → value`.
///
/// Accepts exactly what [`MetricsRegistry::render`] (and the server's
/// `/metrics` endpoint) emit: `# `-prefixed comment lines and
/// `name[{labels}] value` samples. Errors on anything else — the
/// round-trip property tests lean on this being strict.
pub fn parse_exposition(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no space separator: {line:?}", lineno + 1))?;
        if name.is_empty() || !name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", lineno + 1))?;
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

/// A [`TraceSink`] that aggregates events into a shared
/// [`MetricsRegistry`] — the cheap always-on path when full journaling
/// is off.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    registry: MetricsRegistry,
}

impl MetricsSink {
    /// Sink feeding `registry`.
    pub fn new(registry: MetricsRegistry) -> Self {
        MetricsSink { registry }
    }

    /// The shared registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl TraceSink for MetricsSink {
    fn observe(&mut self, event: &TraceEvent) {
        let r = &self.registry;
        r.inc(&format!(
            "hds_trace_events_total{{kind=\"{}\",detail=\"{}\"}}",
            escape_label(&event.kind),
            escape_label(&event.detail)
        ));
        match (event.kind.as_str(), event.detail.as_str()) {
            ("wire", "complete") => {
                let service = event.dur_ms.saturating_sub(event.queue_ms);
                r.observe_ms("hds_wire_queue_ms", event.queue_ms);
                r.observe_ms("hds_wire_service_ms", service);
                r.observe_ms(
                    &format!("hds_wire_queue_ms{{conn=\"{}\"}}", event.conn),
                    event.queue_ms,
                );
                r.observe_ms(
                    &format!("hds_wire_service_ms{{conn=\"{}\"}}", event.conn),
                    service,
                );
            }
            ("retry", _) => {
                r.observe_ms("hds_backoff_ms", event.dur_ms);
                r.observe_ms(
                    &format!("hds_backoff_ms{{conn=\"{}\"}}", event.conn),
                    event.dur_ms,
                );
            }
            ("cache", "hit") => r.inc("hds_cache_hits_total"),
            ("cache", "miss") => r.inc("hds_cache_misses_total"),
            ("l2", "load") => r.inc("hds_l2_loads_total"),
            ("l2", "hit") => r.inc("hds_l2_hits_total"),
            ("l2", "miss") => r.inc("hds_l2_misses_total"),
            ("l2", "put") => r.inc("hds_l2_puts_total"),
            ("sample", _) => r.inc("hds_samples_total"),
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_complete(conn: u64, at_ms: u64, dur_ms: u64, queue_ms: u64) -> TraceEvent {
        TraceEvent {
            kind: "wire".into(),
            detail: "complete".into(),
            conn,
            at_ms,
            dur_ms,
            queue_ms,
            ..TraceEvent::default()
        }
    }

    #[test]
    fn tracer_hands_out_sequential_spans_and_fans_out() {
        let mut a = TraceLog::new();
        let mut b = TraceLog::new();
        {
            let mut sinks: Vec<&mut dyn TraceSink> = vec![&mut a, &mut b];
            let mut tracer = Tracer::new(&mut sinks);
            assert!(tracer.enabled());
            assert_eq!(tracer.next_span(), 1);
            assert_eq!(tracer.next_span(), 2);
            tracer.emit(&wire_complete(0, 1, 1, 0));
        }
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
        let mut none: Vec<&mut dyn TraceSink> = vec![];
        assert!(!Tracer::new(&mut none).enabled());
    }

    #[test]
    fn registry_counts_and_renders_deterministically() {
        let r = MetricsRegistry::new();
        r.inc("b_total");
        r.add("a_total", 3);
        r.set_gauge("g", 9);
        r.observe_ms("lat_ms", 7);
        r.observe_ms("lat_ms", 6000);
        let text = r.render();
        assert_eq!(r.counter("a_total"), 3);
        assert_eq!(text, r.render(), "rendering is a pure snapshot");
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 3"));
        assert!(text.contains("# TYPE g gauge"));
        assert!(text.contains("lat_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ms_sum 6007"));
        assert!(text.contains("lat_ms_count 2"));
        // A clone shares state.
        let clone = r.clone();
        clone.inc("a_total");
        assert_eq!(r.counter("a_total"), 4);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let r = MetricsRegistry::new();
        r.add("requests_total{route=\"search\"}", 5);
        r.observe_ms("svc_ms{conn=\"1\"}", 42);
        let parsed = parse_exposition(&r.render()).expect("render parses");
        assert_eq!(parsed["requests_total{route=\"search\"}"], 5.0);
        assert_eq!(parsed["svc_ms_bucket{conn=\"1\",le=\"50\"}"], 1.0);
        assert_eq!(parsed["svc_ms_sum{conn=\"1\"}"], 42.0);
        assert_eq!(parsed["svc_ms_count{conn=\"1\"}"], 1.0);
        assert!(parse_exposition("no-trailing-value").is_err());
        assert!(parse_exposition("name not-a-number").is_err());
    }

    #[test]
    fn metrics_sink_aggregates_wire_splits() {
        let r = MetricsRegistry::new();
        let mut sink = MetricsSink::new(r.clone());
        sink.observe(&wire_complete(1, 100, 30, 10));
        sink.observe(&TraceEvent {
            kind: "retry".into(),
            detail: "backoff".into(),
            conn: 1,
            dur_ms: 25,
            ..TraceEvent::default()
        });
        sink.observe(&TraceEvent {
            kind: "cache".into(),
            detail: "hit".into(),
            ..TraceEvent::default()
        });
        sink.observe(&wire_complete(2, 200, 5, 0));
        let text = r.render();
        assert!(text.contains("hds_wire_service_ms_count 2"), "{text}");
        assert!(text.contains("hds_wire_queue_ms_sum 10"));
        assert!(text.contains("hds_backoff_ms_sum 25"));
        assert_eq!(r.counter("hds_cache_hits_total"), 1);
        assert_eq!(
            r.counter("hds_trace_events_total{kind=\"wire\",detail=\"complete\"}"),
            2
        );
    }
}
