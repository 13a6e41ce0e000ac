//! Record and replay the wire: `replay:` locators.
//!
//! [`RecordingTransport`] is a decorator that passes every fetch through to
//! its inner transport and appends the `(path, outcome)` pair to a JSONL
//! tape — one [`TapeEntry`] per line, flushed eagerly so the tape survives
//! an abrupt exit. [`ReplaySite`] loads such a tape and serves it back as a
//! [`Transport`]: per request path, recorded outcomes are dealt in recorded
//! order (FIFO), and once a path's queue runs dry its last outcome repeats
//! — a page a deterministic walker fetched once, a re-run may fetch again.
//!
//! Because the landing page `/` goes through the same transport, a
//! recording made with schema discovery *contains* the discovery page, so
//! replaying needs no schema flags either: the whole pipeline — discover,
//! configure, walk — runs offline, byte-identical to the recorded session.
//! That makes `replay:` tapes a zero-server CI path for the full stack.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use hdsampler_model::InterfaceError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::aio::{AsyncTransport, ConnId, FetchHandle, FetchPoll};
use crate::transport::{Clocked, Transport};

/// One recorded exchange: request path in, outcome out. Flat on purpose —
/// the vendored JSON layer round-trips plain structs, and a flat record
/// keeps tapes greppable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TapeEntry {
    /// The request path (path + query string), exactly as fetched.
    pub path: String,
    /// Outcome kind: `ok`, `budget-exhausted`, `throttled`,
    /// `schema-mismatch`, `transport` or `parse`.
    pub kind: String,
    /// The page body (`ok`) or the error message; empty for the numeric
    /// error kinds.
    pub body: String,
    /// Numeric payload: queries issued (`budget-exhausted`) or the
    /// advertised backoff in milliseconds (`throttled`); `0` otherwise.
    pub ms: u64,
}

impl TapeEntry {
    /// Snapshot a fetch outcome for `path`.
    fn from_outcome(path: &str, outcome: &Result<String, InterfaceError>) -> TapeEntry {
        let (kind, body, ms) = match outcome {
            Ok(page) => ("ok", page.clone(), 0),
            Err(InterfaceError::BudgetExhausted { issued }) => {
                ("budget-exhausted", String::new(), *issued)
            }
            Err(InterfaceError::Throttled { retry_after_ms }) => {
                ("throttled", String::new(), *retry_after_ms)
            }
            Err(InterfaceError::SchemaMismatch(msg)) => ("schema-mismatch", msg.clone(), 0),
            Err(InterfaceError::Transport(msg)) => ("transport", msg.clone(), 0),
            Err(InterfaceError::Parse(msg)) => ("parse", msg.clone(), 0),
            // Interface-layer errors (InvalidQuery, Unsupported) never
            // cross a transport; if one somehow does, keep its text.
            Err(other) => ("transport", other.to_string(), 0),
        };
        TapeEntry {
            path: path.to_owned(),
            kind: kind.into(),
            body,
            ms,
        }
    }

    /// Rebuild the fetch outcome this entry recorded.
    fn to_outcome(&self) -> Result<String, InterfaceError> {
        match self.kind.as_str() {
            "ok" => Ok(self.body.clone()),
            "budget-exhausted" => Err(InterfaceError::BudgetExhausted { issued: self.ms }),
            "throttled" => Err(InterfaceError::Throttled {
                retry_after_ms: self.ms,
            }),
            "schema-mismatch" => Err(InterfaceError::SchemaMismatch(self.body.clone())),
            "transport" => Err(InterfaceError::Transport(self.body.clone())),
            "parse" => Err(InterfaceError::Parse(self.body.clone())),
            other => Err(InterfaceError::Transport(format!(
                "replay tape: unknown entry kind `{other}`"
            ))),
        }
    }
}

/// Transport decorator writing every exchange to a JSONL tape.
///
/// Implements whichever faces its inner transport has: blocking
/// [`Transport`], non-blocking [`AsyncTransport`] (outcomes are recorded at
/// poll/complete time, i.e. in completion order — the order a replayed
/// walker consumes them in), and [`Clocked`].
#[derive(Debug)]
pub struct RecordingTransport<T> {
    inner: T,
    tape: Mutex<BufWriter<File>>,
    /// Paths of submitted-but-uncompleted async fetches, by handle id.
    pending: Mutex<HashMap<u64, String>>,
}

impl<T> RecordingTransport<T> {
    /// Wrap `inner`, recording to a fresh tape at `path` (truncated).
    ///
    /// # Errors
    /// A message when the tape file cannot be created.
    pub fn create(inner: T, path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| format!("cannot create tape `{}`: {e}", path.display()))?;
        Ok(RecordingTransport {
            inner,
            tape: Mutex::new(BufWriter::new(file)),
            pending: Mutex::new(HashMap::new()),
        })
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub(crate) fn record(&self, path: &str, outcome: &Result<String, InterfaceError>) {
        let entry = TapeEntry::from_outcome(path, outcome);
        let line = serde_json::to_string(&entry).expect("tape entries always serialize");
        let mut tape = self.tape.lock();
        // Eager line-by-line flush: a tape is most valuable exactly when
        // the run did not end cleanly.
        let _ = writeln!(tape, "{line}");
        let _ = tape.flush();
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        let outcome = self.inner.fetch(path);
        self.record(path, &outcome);
        outcome
    }

    fn close_idle(&self) -> usize {
        self.inner.close_idle()
    }

    fn backoff(&self, ms: u64) {
        self.inner.backoff(ms)
    }
}

impl<T: Clocked> Clocked for RecordingTransport<T> {
    fn elapsed_ms(&self) -> u64 {
        self.inner.elapsed_ms()
    }
}

impl<T: AsyncTransport> AsyncTransport for RecordingTransport<T> {
    fn connect(&self) -> ConnId {
        self.inner.connect()
    }

    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        let handle = self.inner.submit(conn, path);
        self.pending.lock().insert(handle.id, path.to_owned());
        handle
    }

    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        let id = handle.id;
        match self.inner.poll(handle) {
            FetchPoll::Pending(h) => FetchPoll::Pending(h),
            FetchPoll::Ready(outcome) => {
                if let Some(path) = self.pending.lock().remove(&id) {
                    self.record(&path, &outcome);
                }
                FetchPoll::Ready(outcome)
            }
        }
    }

    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        let id = handle.id;
        let outcome = self.inner.complete(handle);
        if let Some(path) = self.pending.lock().remove(&id) {
            self.record(&path, &outcome);
        }
        outcome
    }

    fn cancel(&self, handle: FetchHandle) {
        self.pending.lock().remove(&handle.id);
        self.inner.cancel(handle);
    }

    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        self.inner.observe_now(conn, now_ms)
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        self.inner.virtual_elapsed_ms()
    }

    fn wire_is_virtual(&self) -> bool {
        self.inner.wire_is_virtual()
    }

    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        self.inner.wait_ready(timeout_ms)
    }
}

/// Per-path replay state: outcomes still queued, plus the last one dealt
/// (the repeat fallback).
#[derive(Debug)]
struct PathQueue {
    queued: VecDeque<TapeEntry>,
    last: Option<TapeEntry>,
}

/// A site served entirely from a recorded tape — the `replay:` connector's
/// transport. No server, no database: every page comes back byte-identical
/// to the recording.
#[derive(Debug)]
pub struct ReplaySite {
    tape_path: String,
    queues: Mutex<HashMap<String, PathQueue>>,
    entries: usize,
}

impl ReplaySite {
    /// Load the JSONL tape at `path`.
    ///
    /// # Errors
    /// A message naming the file and the offending line when the tape is
    /// missing or malformed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read tape `{}`: {e}", path.display()))?;
        let mut queues: HashMap<String, PathQueue> = HashMap::new();
        let mut entries = 0;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry: TapeEntry = serde_json::from_str(line).map_err(|e| {
                format!(
                    "tape `{}` line {}: not a tape entry ({e})",
                    path.display(),
                    lineno + 1
                )
            })?;
            entries += 1;
            queues
                .entry(entry.path.clone())
                .or_insert_with(|| PathQueue {
                    queued: VecDeque::new(),
                    last: None,
                })
                .queued
                .push_back(entry);
        }
        Ok(ReplaySite {
            tape_path: path.display().to_string(),
            queues: Mutex::new(queues),
            entries,
        })
    }

    /// Number of exchanges on the tape.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The tape file this site serves from.
    pub fn tape_path(&self) -> &str {
        &self.tape_path
    }
}

impl Transport for ReplaySite {
    fn fetch(&self, path: &str) -> Result<String, InterfaceError> {
        let mut queues = self.queues.lock();
        let Some(q) = queues.get_mut(path) else {
            return Err(InterfaceError::Transport(format!(
                "404 not found: replay tape `{}` has no page for `{path}`",
                self.tape_path
            )));
        };
        match q.queued.pop_front() {
            Some(entry) => {
                let outcome = entry.to_outcome();
                q.last = Some(entry);
                outcome
            }
            // Queue dry: repeat the last recorded outcome for this path —
            // deterministic walkers may legitimately revisit a page more
            // often than the recording run did.
            None => q
                .last
                .as_ref()
                .expect("a queued path always has a last entry")
                .to_outcome(),
        }
    }

    fn backoff(&self, _ms: u64) {
        // Replays run offline: never actually sleep.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{LatencyTransport, LocalSite};
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_tape(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hds_tape_{}_{tag}_{n}.jsonl", std::process::id()))
    }

    fn site() -> LocalSite<HiddenDb> {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "Honda"]).unwrap())
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema)).result_limit(1);
        for v in [0u16, 0, 1] {
            b.push(&Tuple::new(&schema, vec![v], vec![]).unwrap())
                .unwrap();
        }
        LocalSite::new(b.finish(), schema)
    }

    #[test]
    fn record_then_replay_is_byte_identical() {
        let tape = temp_tape("roundtrip");
        let paths = [
            "/",
            "/search?make=Honda",
            "/search?make=Toyota",
            "/search?bogus=1",
            "/nosuchpage",
            "/search?make=Honda",
        ];
        let recorded: Vec<_> = {
            let rec = RecordingTransport::create(site(), &tape).unwrap();
            paths.iter().map(|p| rec.fetch(p)).collect()
        };
        let replay = ReplaySite::load(&tape).unwrap();
        assert_eq!(replay.entries(), paths.len());
        for (p, want) in paths.iter().zip(&recorded) {
            assert_eq!(&replay.fetch(p), want, "path {p}");
        }
        std::fs::remove_file(&tape).ok();
    }

    #[test]
    fn replay_repeats_the_last_outcome_when_a_path_runs_dry() {
        let tape = temp_tape("dry");
        {
            let rec = RecordingTransport::create(site(), &tape).unwrap();
            rec.fetch("/search?make=Honda").unwrap();
        }
        let replay = ReplaySite::load(&tape).unwrap();
        let first = replay.fetch("/search?make=Honda").unwrap();
        let again = replay.fetch("/search?make=Honda").unwrap();
        assert_eq!(first, again, "dry queue repeats its last page");
        std::fs::remove_file(&tape).ok();
    }

    #[test]
    fn replay_404s_paths_the_tape_never_saw() {
        let tape = temp_tape("miss");
        {
            let rec = RecordingTransport::create(site(), &tape).unwrap();
            rec.fetch("/search?make=Honda").unwrap();
        }
        let replay = ReplaySite::load(&tape).unwrap();
        let err = replay.fetch("/search?make=Toyota").unwrap_err();
        assert!(
            matches!(&err, InterfaceError::Transport(msg)
                if msg.contains("404") && msg.contains("/search?make=Toyota")),
            "{err:?}"
        );
        std::fs::remove_file(&tape).ok();
    }

    #[test]
    fn async_face_records_in_completion_order() {
        let tape = temp_tape("async");
        {
            let rec = RecordingTransport::create(LatencyTransport::new(site(), 10), &tape).unwrap();
            let conn = rec.connect();
            let a = rec.submit(conn, "/search?make=Honda");
            let b = rec.submit(conn, "/search?make=Toyota");
            // Complete out of submission order: the tape must follow
            // completions, because that is the order a replayed run
            // consumes outcomes in.
            rec.complete(b).unwrap();
            rec.complete(a).unwrap();
            let c = rec.submit(conn, "/search?make=Honda");
            rec.cancel(c); // cancelled fetches never reach the tape
        }
        let replay = ReplaySite::load(&tape).unwrap();
        assert_eq!(replay.entries(), 2);
        assert!(replay
            .fetch("/search?make=Toyota")
            .unwrap()
            .contains("<table"));
        assert!(replay
            .fetch("/search?make=Honda")
            .unwrap()
            .contains("Honda"));
        std::fs::remove_file(&tape).ok();
    }

    #[test]
    fn error_outcomes_survive_the_tape() {
        for (outcome, kind) in [
            (
                Err(InterfaceError::BudgetExhausted { issued: 42 }),
                "budget-exhausted",
            ),
            (
                Err(InterfaceError::Throttled {
                    retry_after_ms: 250,
                }),
                "throttled",
            ),
            (
                Err(InterfaceError::SchemaMismatch("400 bad request: x".into())),
                "schema-mismatch",
            ),
            (
                Err(InterfaceError::Transport("503 down".into())),
                "transport",
            ),
            (Err(InterfaceError::Parse("bad page".into())), "parse"),
            (Ok("page".to_string()), "ok"),
        ] {
            let entry = TapeEntry::from_outcome("/p", &outcome);
            assert_eq!(entry.kind, kind);
            assert_eq!(entry.to_outcome(), outcome);
            let line = serde_json::to_string(&entry).unwrap();
            let back: TapeEntry = serde_json::from_str(&line).unwrap();
            assert_eq!(back, entry, "JSONL round trip");
        }
    }

    #[test]
    fn malformed_tapes_fail_with_line_numbers() {
        let tape = temp_tape("malformed");
        std::fs::write(
            &tape,
            "{\"path\":\"/\",\"kind\":\"ok\",\"body\":\"x\",\"ms\":0}\nnot json\n",
        )
        .unwrap();
        let err = ReplaySite::load(&tape).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_file(&tape).ok();
        assert!(ReplaySite::load("/nonexistent/tape.jsonl").is_err());
    }
}
