//! Trace journaling, the wire event format, and the `/events` client.
//!
//! This module is the glue between the in-process observability types
//! ([`TraceEvent`](hdsampler_core::TraceEvent) /
//! [`SampleEvent`](hdsampler_core::SampleEvent)) and their on-disk /
//! on-wire representations:
//!
//! * [`write_journal`] / [`read_journal`] — JSONL trace journals
//!   (`--trace <path>`), one event per line, in emission order. A seeded
//!   virtual-wire run journals bit-identically across repetitions.
//! * [`WireSampleEvent`] — the owned, serializable snapshot of an
//!   accepted-sample event that the server's `/events` SSE stream
//!   carries, and that `trace watch <host:port>` consumes.
//! * [`watch_events`] — a dependency-free chunked-transfer SSE client
//!   (the consumer half of the server's `/events` plane).
//! * [`TraceReport`] / [`summarize`] — the per-stage latency breakdown
//!   behind `hdsampler trace report`.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::Path;

use hdsampler_core::{SampleEvent, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::httpc::MAX_RESPONSE_BYTES;

/// Serialize one trace event as its canonical single-line JSON form.
pub fn event_json(event: &TraceEvent) -> String {
    serde_json::to_string(event).expect("TraceEvent serializes")
}

/// Parse one journal line back into a trace event.
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    serde_json::from_str(line).map_err(|e| format!("bad trace line: {e}"))
}

/// Write `events` to `path` as JSONL, one event per line, in order.
pub fn write_journal(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    for event in events {
        out.write_all(event_json(event).as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Read a JSONL trace journal back, in journal order.
pub fn read_journal(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_event(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

/// The owned snapshot of a [`SampleEvent`] that crosses the wire on the
/// server's `/events` stream. Carries everything a remote watcher needs
/// to mirror a local progress display: provenance, running counts, and
/// the sampled row's key and weight (the row values themselves stay
/// server-side — a watcher tracks progress, not payloads).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WireSampleEvent {
    /// Site index within the run.
    pub site: usize,
    /// Walker index within the site.
    pub walker: usize,
    /// Samples collected so far, this event included.
    pub collected: usize,
    /// Target sample count.
    pub target: usize,
    /// Distinct queries issued so far (running counter).
    pub queries: u64,
    /// Total requests answered so far, cache hits included.
    pub requests: u64,
    /// The accepted row's site-assigned listing key.
    pub key: u64,
    /// The accepted sample's importance weight.
    pub weight: f64,
}

impl WireSampleEvent {
    /// Snapshot a borrowed in-process event into its wire form.
    pub fn from_event(ev: &SampleEvent<'_>) -> Self {
        WireSampleEvent {
            site: ev.site,
            walker: ev.walker,
            collected: ev.collected,
            target: ev.target,
            queries: ev.queries,
            requests: ev.requests,
            key: ev.sample.row.key,
            weight: ev.sample.weight,
        }
    }

    /// Single-line JSON form (the SSE `data:` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("WireSampleEvent serializes")
    }

    /// Parse the SSE `data:` payload back.
    pub fn parse(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|e| format!("bad event payload: {e}"))
    }
}

/// Serialize a borrowed sample event straight to its wire JSON.
pub fn sample_event_json(ev: &SampleEvent<'_>) -> String {
    WireSampleEvent::from_event(ev).to_json()
}

/// Subscribe to `GET /events` on `addr` (`host:port`) and deliver each
/// streamed [`WireSampleEvent`] to `on_event` until the server closes the
/// stream or the callback returns `false`. Returns the number of events
/// delivered.
///
/// The transfer is HTTP/1.1 chunked `text/event-stream`; this client
/// reassembles chunks, then splits SSE frames on blank lines and parses
/// each `data:` payload.
pub fn watch_events(
    addr: &str,
    mut on_event: impl FnMut(WireSampleEvent) -> bool,
) -> Result<usize, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    writer
        .write_all(
            format!("GET /events HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("send request: {e}"))?;

    let mut reader = BufReader::new(stream);
    let status = read_crlf_line(&mut reader)?.ok_or("connection closed")?;
    if !status.contains(" 200 ") {
        return Err(format!("server answered {status:?}, not 200"));
    }
    let mut chunked = false;
    loop {
        let line = read_crlf_line(&mut reader)?.ok_or("connection closed")?;
        if line.is_empty() {
            break;
        }
        if line.eq_ignore_ascii_case("transfer-encoding: chunked") {
            chunked = true;
        }
    }
    if !chunked {
        return Err("server did not answer with a chunked stream".into());
    }

    let mut delivered = 0usize;
    let mut text = String::new();
    // The server closing mid-stream ends the watch.
    while let Some(size_line) = read_crlf_line(&mut reader)? {
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size > MAX_RESPONSE_BYTES {
            return Err(format!("chunk of {size} bytes exceeds the response cap"));
        }
        let mut chunk = vec![0u8; size + 2]; // payload + trailing CRLF
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("short chunk: {e}"))?;
        if size == 0 {
            break; // terminal chunk
        }
        chunk.truncate(size);
        text.push_str(&String::from_utf8_lossy(&chunk));

        // SSE frames are separated by blank lines; deliver every
        // complete `sample` frame, keep the unterminated tail buffered.
        // Other event types (`trace`) and comment frames pass through
        // unparsed — the stream multiplexes more than sample events.
        while let Some(pos) = text.find("\n\n") {
            let frame: String = text[..pos].to_string();
            text.drain(..pos + 2);
            let event = frame
                .lines()
                .find_map(|l| l.strip_prefix("event: "))
                .unwrap_or("");
            if event != "sample" {
                continue;
            }
            for line in frame.lines() {
                if let Some(payload) = line.strip_prefix("data: ") {
                    delivered += 1;
                    if !on_event(WireSampleEvent::parse(payload)?) {
                        return Ok(delivered);
                    }
                }
            }
        }
        if text.len() > MAX_RESPONSE_BYTES {
            return Err("undelivered event text exceeds the response cap".into());
        }
    }
    Ok(delivered)
}

/// Longest status, header or chunk-size line [`watch_events`] reads.
const MAX_LINE_BYTES: u64 = 8 << 10;

/// Read one CRLF-terminated line off an HTTP stream, without the CRLF:
/// `None` once the peer has closed or the read failed, an error for a
/// line over [`MAX_LINE_BYTES`].
fn read_crlf_line(reader: &mut impl BufRead) -> Result<Option<String>, String> {
    let mut line = String::new();
    match reader.take(MAX_LINE_BYTES).read_line(&mut line) {
        Ok(0) | Err(_) => return Ok(None),
        Ok(n) if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') => {
            return Err(format!("line longer than {MAX_LINE_BYTES} bytes"));
        }
        Ok(_) => {}
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Aggregate latency attribution over a trace journal — the numbers
/// behind `hdsampler trace report`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Total events in the journal.
    pub events: usize,
    /// Event count per `kind/detail`.
    pub by_kind: BTreeMap<String, usize>,
    /// Completed wire fetches.
    pub fetches: usize,
    /// Virtual ms fetches spent queued behind their connection.
    pub queue_ms: u64,
    /// Virtual ms fetches spent in service (dur − queue).
    pub service_ms: u64,
    /// Retry backoffs taken, and their total virtual wait.
    pub retries: usize,
    /// Total backoff wait across retries (virtual ms).
    pub backoff_ms: u64,
    /// History-cache hits and misses.
    pub cache_hits: usize,
    /// History-cache misses (queries that went to the wire).
    pub cache_misses: usize,
    /// Stall resolutions (coop driver forced the earliest fetch).
    pub stalls: usize,
    /// Work-stealing rebalances granted.
    pub steals: usize,
    /// Accepted samples.
    pub samples: usize,
    /// Makespan: the latest virtual timestamp any event carries.
    pub makespan_ms: u64,
    /// Per-connection busy time (sum of service ms), keyed by conn index.
    pub conn_busy_ms: BTreeMap<u64, u64>,
}

impl TraceReport {
    /// The connection carrying the most service time — the wire-side
    /// critical path — as `(conn, busy_ms)`.
    pub fn critical_conn(&self) -> Option<(u64, u64)> {
        self.conn_busy_ms
            .iter()
            .max_by_key(|&(conn, busy)| (*busy, std::cmp::Reverse(*conn)))
            .map(|(c, b)| (*c, *b))
    }
}

/// Summarize a trace journal into its per-stage latency breakdown.
pub fn summarize(events: &[TraceEvent]) -> TraceReport {
    let mut report = TraceReport {
        events: events.len(),
        ..TraceReport::default()
    };
    for ev in events {
        let label = if ev.detail.is_empty() {
            ev.kind.clone()
        } else {
            format!("{}/{}", ev.kind, ev.detail)
        };
        *report.by_kind.entry(label).or_insert(0) += 1;
        report.makespan_ms = report.makespan_ms.max(ev.at_ms);
        match (ev.kind.as_str(), ev.detail.as_str()) {
            ("wire", "complete") => {
                report.fetches += 1;
                report.queue_ms += ev.queue_ms;
                report.service_ms += ev.dur_ms.saturating_sub(ev.queue_ms);
                *report.conn_busy_ms.entry(ev.conn).or_insert(0) +=
                    ev.dur_ms.saturating_sub(ev.queue_ms);
            }
            ("retry", _) => {
                report.retries += 1;
                report.backoff_ms += ev.dur_ms;
            }
            ("cache", "hit") => report.cache_hits += 1,
            ("cache", "miss") => report.cache_misses += 1,
            ("stall", _) => report.stalls += 1,
            ("steal", _) => report.steals += 1,
            ("sample", _) => report.samples += 1,
            _ => {}
        }
    }
    report
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace report: {} events", self.events)?;
        writeln!(f, "  events by kind:")?;
        for (label, count) in &self.by_kind {
            writeln!(f, "    {label:<16} {count}")?;
        }
        writeln!(f, "  wire: {} fetches completed", self.fetches)?;
        if self.fetches > 0 {
            let n = self.fetches as u64;
            writeln!(
                f,
                "    queue   {} ms total, {} ms mean",
                self.queue_ms,
                self.queue_ms / n
            )?;
            writeln!(
                f,
                "    service {} ms total, {} ms mean",
                self.service_ms,
                self.service_ms / n
            )?;
        }
        writeln!(
            f,
            "  retries: {} ({} ms backoff)  stalls: {}  steals: {}",
            self.retries, self.backoff_ms, self.stalls, self.steals
        )?;
        let classified = self.cache_hits + self.cache_misses;
        if classified > 0 {
            writeln!(
                f,
                "  cache: {} hits / {} misses ({:.0}% saved)",
                self.cache_hits,
                self.cache_misses,
                self.cache_hits as f64 / classified as f64 * 100.0
            )?;
        }
        writeln!(f, "  samples: {}", self.samples)?;
        write!(f, "  critical path: makespan {} ms", self.makespan_ms)?;
        if let Some((conn, busy)) = self.critical_conn() {
            let share = if self.makespan_ms > 0 {
                busy as f64 / self.makespan_ms as f64 * 100.0
            } else {
                0.0
            };
            write!(
                f,
                "; busiest conn {conn} in service {busy} ms ({share:.0}%)"
            )?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_core::{Sample, SampleMeta};
    use hdsampler_model::Row;

    fn ev(kind: &str, detail: &str) -> TraceEvent {
        TraceEvent {
            kind: kind.into(),
            detail: detail.into(),
            ..TraceEvent::default()
        }
    }

    #[test]
    fn watch_refuses_hostile_streams() {
        // A loopback `/events` peer answers 200 chunked, then `body`.
        let watch = |body: &'static [u8]| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let server = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                let mut request = [0u8; 1024];
                let _ = conn.read(&mut request);
                let head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
                // The client may hang up mid-body; that is its answer.
                let _ = conn.write_all(head).and_then(|()| conn.write_all(body));
            });
            let err = watch_events(&addr, |_| true).unwrap_err();
            server.join().unwrap();
            err
        };
        // A 2^64 − 1 byte chunk is refused before anything is allocated
        // for it (`size + 2` would overflow).
        let err = watch(b"ffffffffffffffff\r\n");
        assert!(err.contains("exceeds the response cap"), "{err}");
        // A chunk-size line that never ends is refused at the line cap
        // instead of buffered whole.
        let err = watch(&[b'1'; 64 << 10]);
        assert!(err.contains("line longer than"), "{err}");
    }

    #[test]
    fn journal_roundtrips_through_disk() {
        let events = vec![
            TraceEvent {
                kind: "wire".into(),
                detail: "submit".into(),
                span: 1,
                conn: 2,
                at_ms: 10,
                ..TraceEvent::default()
            },
            TraceEvent {
                kind: "wire".into(),
                detail: "complete".into(),
                span: 1,
                conn: 2,
                at_ms: 110,
                dur_ms: 100,
                queue_ms: 25,
                ..TraceEvent::default()
            },
        ];
        let dir = std::env::temp_dir().join("hds-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        write_journal(&path, &events).unwrap();
        let back = read_journal(&path).unwrap();
        assert_eq!(back, events);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one JSON object per line");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wire_sample_event_roundtrips() {
        let sample = Sample {
            row: Row::new(42, vec![1, 2], vec![9.5]),
            weight: 0.25,
            meta: SampleMeta::default(),
        };
        let ev = SampleEvent {
            sample: &sample,
            site: 1,
            walker: 3,
            collected: 7,
            target: 100,
            queries: 19,
            requests: 31,
        };
        let json = sample_event_json(&ev);
        let back = WireSampleEvent::parse(&json).unwrap();
        assert_eq!(back.key, 42);
        assert_eq!(back.weight, 0.25);
        assert_eq!(back.collected, 7);
        assert_eq!(back.queries, 19);
        assert_eq!(back.requests, 31);
    }

    #[test]
    fn summarize_attributes_latency_per_stage() {
        let events = vec![
            TraceEvent {
                kind: "wire".into(),
                detail: "complete".into(),
                conn: 0,
                at_ms: 100,
                dur_ms: 100,
                queue_ms: 40,
                ..TraceEvent::default()
            },
            TraceEvent {
                kind: "wire".into(),
                detail: "complete".into(),
                conn: 1,
                at_ms: 250,
                dur_ms: 200,
                queue_ms: 0,
                ..TraceEvent::default()
            },
            TraceEvent {
                kind: "retry".into(),
                detail: "backoff".into(),
                dur_ms: 64,
                at_ms: 300,
                ..TraceEvent::default()
            },
            ev("cache", "hit"),
            ev("cache", "hit"),
            ev("cache", "miss"),
            ev("stall", "force"),
            ev("steal", "s0->s1"),
            ev("sample", ""),
        ];
        let report = summarize(&events);
        assert_eq!(report.events, 9);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.queue_ms, 40);
        assert_eq!(report.service_ms, 60 + 200);
        assert_eq!(report.retries, 1);
        assert_eq!(report.backoff_ms, 64);
        assert_eq!(report.cache_hits, 2);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.stalls, 1);
        assert_eq!(report.steals, 1);
        assert_eq!(report.samples, 1);
        assert_eq!(report.makespan_ms, 300);
        assert_eq!(report.critical_conn(), Some((1, 200)));
        assert_eq!(report.by_kind["wire/complete"], 2);
        assert_eq!(report.by_kind["sample"], 1);

        let text = report.to_string();
        assert!(text.contains("2 fetches completed"));
        assert!(text.contains("makespan 300 ms"));
    }

    #[test]
    fn malformed_journal_lines_are_reported_with_position() {
        let dir = std::env::temp_dir().join("hds-telemetry-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        let good = event_json(&ev("sample", ""));
        std::fs::write(&path, format!("{good}\nnot json\n")).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.contains("line 2"), "error names the line: {err}");
        std::fs::remove_file(&path).unwrap();
    }
}
