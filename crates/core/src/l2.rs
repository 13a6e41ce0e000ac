//! Disk-backed L2 history: an append-only JSONL fact log per site.
//!
//! The in-memory history cache ([`crate::history::CachingExecutor`]) dies
//! with the process; every fleet run re-learns the same hidden database
//! from scratch. This module persists the *learned* facts — counts,
//! containment classifications, and complete valid row sets, each stamped
//! with its learn time — so a later run against the same site warm-starts
//! from disk instead of the wire. Memo entries are deliberately **not**
//! persisted: they are rederivable from the containment facts.
//!
//! Layout on disk: `<root>/<fingerprint>/seg-NNNNN.jsonl`, one JSON record
//! per line, each an object whose only key is the record's kind (serde's
//! tagging of a private `Record` enum):
//!
//! ```text
//! {"Row":[key,[values],[measures]]}       one listing tuple
//! {"Count":[query,count,learned_at]}
//! {"Empty":[query,learned_at]}
//! {"Overflow":[query,learned_at]}
//! {"Valid":[query,[keys],learned_at]}     the result set's keys, in order
//! ```
//!
//! where `query` is `[[attr,value],...]`. A handle writes a row record the
//! first time it persists that listing key, and again only if the tuple's
//! content changed, so a tuple is stored once however many valid facts
//! contain it. Appends go to the newest segment and rotate once it holds
//! [`L2Config::rotate_records`] records, rows and facts alike;
//! [`L2Log::compact`] rewrites everything into a single deduplicated
//! segment (keeping the *earliest* stamp per fact, since a fact's learn
//! time never moves later), rows first and only those a fact references.
//!
//! Loading reads each segment once, decodes every line straight into its
//! record, builds one key → row map and resolves every valid fact through
//! it into one shared, exactly sized row list. A valid fact is skipped and
//! counted when one of its keys has no row record ahead of it (the row was
//! torn or lost), or when two row records for one of its keys disagree: a
//! changed site must never answer with another fact's copy of a tuple. Torn final records, garbage prefixes,
//! and any other unparseable line are skipped and counted too, never a
//! panic — crash mid-append must not poison the log.
//!
//! Crash contract: each append (a fact together with the row records it
//! needs) is handed to the kernel in one `write` on a file opened for
//! appending, so once [`L2Log::append`] returns, the record survives a
//! crash of the process. Appends are not synced to the device — only
//! [`L2Log::compact`] calls `sync_all` — so a power loss can still lose
//! recent appends; the loader then sees a shorter or torn log.
//!
//! Site identity is a [`SiteFingerprint`]: a versioned FNV digest of the
//! schema, the display limit `k`, count support, and (when the deriving
//! side can see the data) a dataset digest. The version prefix retires old
//! logs wholesale when the format or the identity changes: `hds2` stores
//! rows once, and `hds1` directories ([`L2Log::list_retired`]) are only
//! reported and deleted, never read.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hdsampler_model::{AttrId, ConjunctiveQuery, DomIx, Row, Schema};
use serde::{Deserialize, Serialize};

/// Version prefix of every fingerprint this build derives. Bump it to
/// invalidate all existing logs at once.
pub const FINGERPRINT_VERSION: &str = "hds2";

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".jsonl";

/// FNV-1a over a byte stream (same constants as the history cache's map
/// hash; stability across builds is what matters here, since fingerprints
/// live on disk).
fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of a row's content: the writer compares it with what is on disk
/// to tell a changed tuple from one it need not write again. It lives in
/// memory only, so it is free to use the fast [`KeyHasher`].
fn row_digest(row: &Row) -> u64 {
    let mut h = KeyHasher::default();
    h.write_u64(row.key);
    h.write_u64(row.values.len() as u64);
    for &v in row.values.iter() {
        h.write_u64(u64::from(v));
    }
    for m in row.measures.iter() {
        h.write_u64(m.to_bits());
    }
    h.finish()
}

/// Hashes a listing key with one folded 128-bit multiply. The maps keyed
/// by listing key hold every row of the log and are probed once per key
/// of every valid fact, where a byte-wise FNV costs eight dependent
/// multiplies per probe.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let m = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m >> 64) as u64 ^ m as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by listing key.
type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// Whether `hex` is the 16 lowercase hex digits of a rendered digest.
fn is_digest(hex: &str) -> bool {
    hex.len() == 16
        && hex
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Versioned identity of a site: `hds2-<16 hex digits>`.
///
/// Two runs share an L2 log exactly when their fingerprints agree. The
/// digest covers the schema (attribute names, domain labels, measure
/// names), the advertised `k`, count support, and — when derivable — a
/// digest of the dataset itself. A scraper that cannot see the data (a
/// remote site not advertising one) derives the same fingerprint for the
/// same advertised form, which is the best identity the wire offers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SiteFingerprint(String);

impl SiteFingerprint {
    /// Derive a fingerprint from everything the connecting side knows.
    pub fn derive(
        schema: &Schema,
        k: usize,
        supports_count: bool,
        dataset_digest: Option<u64>,
    ) -> Self {
        let mut h = FNV_OFFSET;
        for attr in schema.attributes() {
            h = fnv1a(h, attr.name().as_bytes());
            h = fnv1a(h, &[0xFF]);
            for v in attr.domain() {
                h = fnv1a(h, attr.label(v).as_bytes());
                h = fnv1a(h, &[0xFE]);
            }
        }
        for m in schema.measures() {
            h = fnv1a(h, m.name().as_bytes());
            h = fnv1a(h, &[0xFD]);
        }
        h = fnv1a(h, &(k as u64).to_le_bytes());
        h = fnv1a(h, &[u8::from(supports_count)]);
        if let Some(d) = dataset_digest {
            h = fnv1a(h, &d.to_le_bytes());
        }
        SiteFingerprint(format!("{FINGERPRINT_VERSION}-{h:016x}"))
    }

    /// Parse a fingerprint string (e.g. scraped off a landing page),
    /// accepting only the current version and shape — anything else is a
    /// foreign or stale identity and must not select a log directory.
    pub fn parse(s: &str) -> Option<Self> {
        let hex = s.strip_prefix(FINGERPRINT_VERSION)?.strip_prefix('-')?;
        is_digest(hex).then(|| SiteFingerprint(s.to_owned()))
    }

    /// Whether `s` has a fingerprint's shape under some *other* version
    /// (`hds<N>-<16 hex digits>`): a log directory an older or a newer
    /// build wrote.
    fn is_retired(s: &str) -> bool {
        let Some((version, hex)) = s.split_once('-') else {
            return false;
        };
        version != FINGERPRINT_VERSION
            && version
                .strip_prefix("hds")
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
            && is_digest(hex)
    }

    /// The fingerprint text (also the log's directory name).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SiteFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One persisted fact. `kind` selects which optional payload applies:
/// `"count"` carries `count`, `"valid"` carries `rows` (the complete
/// result set — that completeness is the fact), `"empty"`/`"overflow"`
/// carry only the query. `learned_at` is the site-clock time (virtual ms)
/// the fact was learned at in the run that wrote it.
///
/// On disk a valid fact stores only its rows' keys; [`L2Log::load`]
/// resolves them back into rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FactRecord {
    /// `"count" | "empty" | "overflow" | "valid"`.
    pub kind: String,
    /// The query the fact is about.
    pub query: ConjunctiveQuery,
    /// Exact result count (kind `"count"`).
    pub count: Option<u64>,
    /// Complete result rows (kind `"valid"`), shared with the history
    /// index that learned or loads them.
    pub rows: Option<Arc<[Row]>>,
    /// Learn time on the writing run's site clock (ms).
    pub learned_at: u64,
}

impl FactRecord {
    /// A learned exact count.
    pub fn count(query: ConjunctiveQuery, count: u64, learned_at: u64) -> Self {
        FactRecord {
            kind: "count".into(),
            query,
            count: Some(count),
            rows: None,
            learned_at,
        }
    }

    /// A learned empty classification.
    pub fn empty(query: ConjunctiveQuery, learned_at: u64) -> Self {
        FactRecord {
            kind: "empty".into(),
            query,
            count: None,
            rows: None,
            learned_at,
        }
    }

    /// A learned overflow classification.
    pub fn overflow(query: ConjunctiveQuery, learned_at: u64) -> Self {
        FactRecord {
            kind: "overflow".into(),
            query,
            count: None,
            rows: None,
            learned_at,
        }
    }

    /// A learned valid classification with its complete rows.
    pub fn valid(query: ConjunctiveQuery, rows: impl Into<Arc<[Row]>>, learned_at: u64) -> Self {
        FactRecord {
            kind: "valid".into(),
            query,
            count: None,
            rows: Some(rows.into()),
            learned_at,
        }
    }
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned())
}

/// A query on disk: its `[attr, value]` pairs.
type Pairs = Vec<(u16, DomIx)>;

/// One line of the log. Serde tags each record with its variant name, the
/// shapes of the module docs.
#[derive(Serialize, Deserialize)]
enum Record {
    Row(u64, Box<[DomIx]>, Box<[f64]>),
    Count(Pairs, u64, u64),
    Empty(Pairs, u64),
    Overflow(Pairs, u64),
    Valid(Pairs, Vec<u64>, u64),
}

fn push_record(buf: &mut Vec<u8>, rec: &Record) -> std::io::Result<()> {
    let line = serde_json::to_string(rec).map_err(|e| invalid(&e.0))?;
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    Ok(())
}

/// Serialise one row record onto `buf`.
fn push_row(buf: &mut Vec<u8>, row: &Row) -> std::io::Result<()> {
    let rec = Record::Row(row.key, row.values.clone(), row.measures.clone());
    push_record(buf, &rec)
}

/// Serialise one fact record onto `buf`, a valid fact's rows as keys.
fn push_fact(buf: &mut Vec<u8>, rec: &FactRecord) -> std::io::Result<()> {
    let query = rec
        .query
        .predicates()
        .iter()
        .map(|p| (p.attr.0, p.value))
        .collect();
    let at = rec.learned_at;
    let line = match (rec.kind.as_str(), rec.count, &rec.rows) {
        ("count", Some(count), _) => Record::Count(query, count, at),
        ("valid", _, Some(rows)) => Record::Valid(query, rows.iter().map(|r| r.key).collect(), at),
        ("empty", ..) => Record::Empty(query, at),
        ("overflow", ..) => Record::Overflow(query, at),
        _ => return Err(invalid("a fact whose kind and payload disagree")),
    };
    push_record(buf, &line)
}

/// A fact line as read back, its rows still unresolved keys.
struct FactIn {
    kind: &'static str,
    query: ConjunctiveQuery,
    count: Option<u64>,
    keys: Option<Vec<u64>>,
    learned_at: u64,
}

enum Line {
    Row(Row),
    Fact(FactIn),
}

/// Parse one line, `None` when it is not a record (torn, garbage,
/// hand-edited into something else).
fn parse_line(line: &str) -> Option<Line> {
    let rec = serde_json::from_str(line).ok()?;
    let (kind, pairs, count, keys, learned_at) = match rec {
        Record::Row(key, values, measures) => {
            return Some(Line::Row(Row {
                key,
                values,
                measures,
            }))
        }
        Record::Count(q, count, at) => ("count", q, Some(count), None, at),
        Record::Empty(q, at) => ("empty", q, None, None, at),
        Record::Overflow(q, at) => ("overflow", q, None, None, at),
        Record::Valid(q, keys, at) => ("valid", q, None, Some(keys), at),
    };
    let query = pairs.into_iter().map(|(a, v)| (AttrId(a), v));
    Some(Line::Fact(FactIn {
        kind,
        query: ConjunctiveQuery::from_pairs(query).ok()?,
        count,
        keys,
        learned_at,
    }))
}

/// One pass over every segment, in log order, before valid facts are
/// resolved into rows.
#[derive(Default)]
struct Scan {
    /// Listing key → its tuple; `None` once two row records disagree.
    rows: KeyMap<Option<Row>>,
    /// Well-formed row records (duplicates included).
    row_records: u64,
    /// Parsed facts whose every key had a row record ahead of them.
    facts: Vec<FactIn>,
    /// Unparseable lines, and facts naming a key with no row before them.
    skipped: u64,
    /// Bytes read.
    bytes: u64,
    /// The newest segment's lines, and whether its last one is torn.
    tail: SegmentTail,
}

/// Where appends resume in a segment.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentTail {
    /// Lines, a torn final one included.
    lines: usize,
    /// Whether the last line lacks its terminator.
    torn: bool,
}

impl SegmentTail {
    /// Count *lines*, not parseable records: a torn tail still occupies
    /// its line, and appending after it on a fresh line keeps the torn
    /// one isolated.
    fn of(bytes: &[u8]) -> Self {
        let torn = bytes.last().is_some_and(|&b| b != b'\n');
        SegmentTail {
            lines: bytes.iter().filter(|&&b| b == b'\n').count() + usize::from(torn),
            torn,
        }
    }

    /// The record count appends resume from, after closing a torn last
    /// line so the next append cannot concatenate onto the damage.
    fn resume(self, seg: &Path) -> std::io::Result<usize> {
        if self.torn {
            OpenOptions::new()
                .append(true)
                .open(seg)?
                .write_all(b"\n")?;
        }
        Ok(self.lines)
    }
}

impl Scan {
    fn read(segs: &[PathBuf]) -> std::io::Result<Scan> {
        let mut scan = Scan::default();
        for seg in segs {
            let bytes = fs::read(seg)?;
            scan.bytes += bytes.len() as u64;
            scan.tail = SegmentTail::of(&bytes);
            // Bytes that are not UTF-8 become U+FFFD, which no record
            // holds (their only strings are variant tags): the line stays
            // unparseable and is skipped as before. A valid segment is
            // borrowed, not copied.
            for line in String::from_utf8_lossy(&bytes).split('\n') {
                if !line.bytes().all(|b| b.is_ascii_whitespace()) {
                    scan.line(line);
                }
            }
        }
        Ok(scan)
    }

    fn line(&mut self, line: &str) {
        match parse_line(line) {
            Some(Line::Row(row)) => {
                self.row_records += 1;
                match self.rows.entry(row.key) {
                    Entry::Vacant(v) => {
                        v.insert(Some(row));
                    }
                    Entry::Occupied(mut o) => {
                        if o.get().as_ref() != Some(&row) {
                            o.insert(None);
                        }
                    }
                }
            }
            // Rows are always written ahead of the facts that name them,
            // so a key without a row so far means the row was lost.
            Some(Line::Fact(fact))
                if fact
                    .keys
                    .iter()
                    .flatten()
                    .all(|k| self.rows.contains_key(k)) =>
            {
                self.facts.push(fact)
            }
            _ => self.skipped += 1,
        }
    }

    /// Whether none of `fact`'s keys is conflicting.
    fn resolvable(&self, fact: &FactIn) -> bool {
        fact.keys
            .iter()
            .flatten()
            .all(|k| self.rows.get(k).is_some_and(Option::is_some))
    }
}

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct L2Config {
    /// Records (rows and facts) per segment before appends rotate to a
    /// fresh one.
    pub rotate_records: usize,
    /// Segment count at or above which [`L2Log::open`] compacts before
    /// serving.
    pub compact_at_segments: usize,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            rotate_records: 8_192,
            compact_at_segments: 8,
        }
    }
}

/// What a scan of the log directory found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2DirStats {
    /// Segment files present.
    pub segments: usize,
    /// Facts that load (their rows all resolve).
    pub facts: u64,
    /// Well-formed row records.
    pub rows: u64,
    /// Bytes on disk across all segments.
    pub bytes: u64,
    /// Torn/garbage lines, and facts whose rows do not resolve.
    pub skipped: u64,
}

/// Outcome of one [`L2Log::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Facts that loaded before the pass.
    pub facts_before: u64,
    /// Segments before the pass.
    pub segments_before: usize,
    /// Facts surviving dedup.
    pub facts_after: u64,
    /// Rows those facts reference (each written once).
    pub rows_after: u64,
    /// Torn/garbage lines and unresolvable facts dropped by the pass.
    pub skipped: u64,
}

/// A log directory written under another [`FINGERPRINT_VERSION`], older
/// or newer: this build neither reads nor extends it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetiredLog {
    /// Directory name (`hds<N>-<16 hex digits>`).
    pub name: String,
    /// Bytes of the files in it.
    pub bytes: u64,
}

#[derive(Debug)]
struct WriterState {
    /// Index of the segment appends currently go to.
    seg_ix: u32,
    /// Records already in that segment; `None` until a load or the first
    /// append counts them.
    records_in_seg: Option<usize>,
    /// Open append handle (lazy: `cache stats` never writes).
    file: Option<File>,
    /// Listing key → [`row_digest`] of its row record on disk (from loads
    /// and from this handle's own appends): a valid fact writes the rows
    /// missing here or whose content changed, so a changed tuple reaches
    /// the disk and the loader sees the conflict.
    on_disk: KeyMap<u64>,
}

/// The append-only fact log for one `(root dir, fingerprint)` pair.
///
/// Safe to share behind an `Arc`: appends serialize on an internal lock,
/// and each one reaches the kernel in a single `write`, so a crashed
/// process loses at most the append in progress — which the tolerant
/// loader then skips. See the module docs for what a power loss can lose.
#[derive(Debug)]
pub struct L2Log {
    dir: PathBuf,
    fingerprint: SiteFingerprint,
    cfg: L2Config,
    writer: Mutex<WriterState>,
    skipped: AtomicU64,
}

impl L2Log {
    /// Open (creating if absent) the log for `fingerprint` under `root`,
    /// compacting first when the segment count reached
    /// [`L2Config::compact_at_segments`]. Otherwise no segment is read
    /// here: the [`load`](Self::load) that follows an attach reads each
    /// one once and learns where appends resume, and an append made
    /// without a load counts the newest segment's lines itself, once.
    pub fn open(root: &Path, fingerprint: SiteFingerprint) -> std::io::Result<L2Log> {
        Self::open_with(root, fingerprint, L2Config::default())
    }

    /// [`L2Log::open`] with explicit tuning.
    pub fn open_with(
        root: &Path,
        fingerprint: SiteFingerprint,
        cfg: L2Config,
    ) -> std::io::Result<L2Log> {
        let dir = root.join(fingerprint.as_str());
        fs::create_dir_all(&dir)?;
        let log = L2Log {
            dir,
            fingerprint,
            cfg,
            writer: Mutex::new(WriterState {
                seg_ix: 0,
                records_in_seg: Some(0),
                file: None,
                on_disk: KeyMap::default(),
            }),
            skipped: AtomicU64::new(0),
        };
        if log.segment_paths()?.len() >= cfg.compact_at_segments.max(2) {
            log.compact()?;
        } else {
            log.seek_append_position()?;
        }
        Ok(log)
    }

    /// The identity this log stores facts for.
    pub fn fingerprint(&self) -> &SiteFingerprint {
        &self.fingerprint
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Torn/garbage lines and unresolvable facts skipped by loads through
    /// this handle.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    fn segment_path(&self, ix: u32) -> PathBuf {
        self.dir
            .join(format!("{SEGMENT_PREFIX}{ix:05}{SEGMENT_SUFFIX}"))
    }

    /// Existing segment files in replay (= chronological) order.
    fn segment_paths(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut segs: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(SEGMENT_PREFIX) && n.ends_with(SEGMENT_SUFFIX))
            })
            .collect();
        segs.sort();
        Ok(segs)
    }

    /// Point the writer at the newest segment, without reading it: the
    /// load that follows an open reads every segment anyway and counts
    /// the newest one's records then (or the first append does).
    fn seek_append_position(&self) -> std::io::Result<()> {
        let segs = self.segment_paths()?;
        let mut w = self.writer.lock().expect("l2 writer lock");
        w.file = None;
        w.records_in_seg = if segs.is_empty() { Some(0) } else { None };
        w.seg_ix = segs
            .last()
            .and_then(|last| last.file_name()?.to_str())
            .and_then(|n| n.strip_prefix(SEGMENT_PREFIX)?.strip_suffix(SEGMENT_SUFFIX))
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        Ok(())
    }

    /// Replay every fact in learn order, with each valid fact's rows
    /// resolved through the row records. Unparseable or incoherent lines,
    /// and facts whose rows are missing or conflicting, are skipped and
    /// counted.
    ///
    /// Each segment is read once. The newest one's line count is where a
    /// fresh handle's appends resume; a torn last line there is closed
    /// first.
    pub fn load(&self) -> std::io::Result<Vec<FactRecord>> {
        let segs = self.segment_paths()?;
        let Scan {
            rows: tuples,
            facts,
            mut skipped,
            tail,
            ..
        } = Scan::read(&segs)?;
        let mut out = Vec::with_capacity(facts.len());
        for fact in facts {
            // `Scan::line` kept only facts whose every key has an entry;
            // a `None` entry is a conflicting key.
            let rows = match &fact.keys {
                None => None,
                Some(keys) if keys.iter().all(|k| tuples[k].is_some()) => Some(
                    keys.iter()
                        .map(|k| tuples[k].clone().expect("checked above"))
                        .collect(),
                ),
                Some(_) => {
                    skipped += 1;
                    continue;
                }
            };
            out.push(FactRecord {
                kind: fact.kind.to_owned(),
                query: fact.query,
                count: fact.count,
                rows,
                learned_at: fact.learned_at,
            });
        }
        let clean = tuples
            .iter()
            .filter_map(|(&k, row)| Some((k, row_digest(row.as_ref()?))));
        let mut w = self.writer.lock().expect("l2 writer lock");
        w.on_disk.extend(clean);
        if let (None, Some(last)) = (w.records_in_seg, segs.last()) {
            w.records_in_seg = Some(tail.resume(last)?);
        }
        self.skipped.fetch_add(skipped, Ordering::Relaxed);
        Ok(out)
    }

    /// Append one fact — a valid one preceded by the row records of the
    /// keys not yet on disk, or on disk with other content — as one buffer
    /// in one `write`. Once this
    /// returns, the fact survives a crash of the process (not a power
    /// loss: nothing is synced).
    pub fn append(&self, rec: &FactRecord) -> std::io::Result<()> {
        let mut w = self.writer.lock().expect("l2 writer lock");
        let mut buf = Vec::new();
        let mut fresh = Vec::new();
        let written = (|| -> std::io::Result<()> {
            for row in rec.rows.as_deref().into_iter().flatten() {
                let digest = row_digest(row);
                if w.on_disk.insert(row.key, digest) != Some(digest) {
                    fresh.push(row.key);
                    push_row(&mut buf, row)?;
                }
            }
            push_fact(&mut buf, rec)?;
            let records = match w.records_in_seg {
                Some(n) => n,
                None => {
                    let seg = self.segment_path(w.seg_ix);
                    match fs::read(&seg) {
                        Ok(bytes) => SegmentTail::of(&bytes).resume(&seg)?,
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
                        Err(e) => return Err(e),
                    }
                }
            };
            w.records_in_seg = Some(records);
            if records >= self.cfg.rotate_records && w.file.is_some() {
                w.seg_ix += 1;
                w.records_in_seg = Some(0);
                w.file = None;
            }
            if w.file.is_none() {
                let path = self.segment_path(w.seg_ix);
                w.file = Some(OpenOptions::new().create(true).append(true).open(path)?);
            }
            w.file
                .as_mut()
                .expect("append handle just opened")
                .write_all(&buf)?;
            w.records_in_seg = w.records_in_seg.map(|n| n + fresh.len() + 1);
            Ok(())
        })();
        if written.is_err() {
            // Rows that did not reach the disk must be written again.
            for key in &fresh {
                w.on_disk.remove(key);
            }
        }
        written
    }

    /// Rewrite the whole log as one deduplicated segment: the rows the
    /// surviving facts reference, each once, then the facts. Duplicate
    /// facts (same kind + query) keep their earliest stamp; torn lines,
    /// unresolvable facts and unreferenced rows vanish.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let segs = self.segment_paths()?;
        let before_skipped = self.skipped.load(Ordering::Relaxed);
        let records = self.load()?;
        let pass_skipped = self.skipped.load(Ordering::Relaxed) - before_skipped;
        let facts_before = records.len() as u64;
        let mut seen: HashMap<(String, ConjunctiveQuery), usize> = HashMap::new();
        let mut kept: Vec<FactRecord> = Vec::with_capacity(records.len());
        for rec in records {
            match seen.entry((rec.kind.clone(), rec.query.clone())) {
                Entry::Vacant(v) => {
                    v.insert(kept.len());
                    kept.push(rec);
                }
                Entry::Occupied(o) => {
                    let prev = &mut kept[*o.get()];
                    if rec.learned_at < prev.learned_at {
                        *prev = rec;
                    }
                }
            }
        }

        let mut buf = Vec::new();
        let mut on_disk = KeyMap::default();
        for row in kept
            .iter()
            .flat_map(|rec| rec.rows.as_deref().into_iter().flatten())
        {
            if on_disk.insert(row.key, row_digest(row)).is_none() {
                push_row(&mut buf, row)?;
            }
        }
        for rec in &kept {
            push_fact(&mut buf, rec)?;
        }

        let mut w = self.writer.lock().expect("l2 writer lock");
        let tmp = self.dir.join("compact.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        for seg in &segs {
            fs::remove_file(seg)?;
        }
        fs::rename(&tmp, self.segment_path(0))?;
        w.seg_ix = 0;
        w.records_in_seg = Some(on_disk.len() + kept.len());
        w.file = None;
        let rows_after = on_disk.len() as u64;
        w.on_disk = on_disk;
        Ok(CompactReport {
            facts_before,
            segments_before: segs.len(),
            facts_after: kept.len() as u64,
            rows_after,
            skipped: pass_skipped,
        })
    }

    /// Delete every segment (the directory itself stays).
    pub fn clear(&self) -> std::io::Result<()> {
        let mut w = self.writer.lock().expect("l2 writer lock");
        for seg in self.segment_paths()? {
            fs::remove_file(seg)?;
        }
        w.seg_ix = 0;
        w.records_in_seg = Some(0);
        w.file = None;
        w.on_disk.clear();
        Ok(())
    }

    /// Count facts and rows without resolving any fact into rows.
    pub fn stats(&self) -> std::io::Result<L2DirStats> {
        let segs = self.segment_paths()?;
        let scan = Scan::read(&segs)?;
        let facts = scan.facts.iter().filter(|f| scan.resolvable(f)).count() as u64;
        Ok(L2DirStats {
            segments: segs.len(),
            facts,
            rows: scan.row_records,
            bytes: scan.bytes,
            skipped: scan.skipped + (scan.facts.len() as u64 - facts),
        })
    }

    /// Subdirectory names under `root`, sorted (none when `root` is
    /// missing).
    fn subdirs(root: &Path) -> std::io::Result<Vec<String>> {
        let mut out = Vec::new();
        if !root.exists() {
            return Ok(out);
        }
        for entry in fs::read_dir(root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                if let Ok(name) = entry.file_name().into_string() {
                    out.push(name);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Fingerprint directories under `root` (for `cache stats` over a
    /// whole cache root).
    pub fn list_sites(root: &Path) -> std::io::Result<Vec<SiteFingerprint>> {
        Ok(Self::subdirs(root)?
            .iter()
            .filter_map(|name| SiteFingerprint::parse(name))
            .collect())
    }

    /// Log directories under `root` that another fingerprint version
    /// wrote, with their sizes: `cache stats` reports them and `cache
    /// clear` deletes them.
    pub fn list_retired(root: &Path) -> std::io::Result<Vec<RetiredLog>> {
        let mut out = Vec::new();
        for name in Self::subdirs(root)? {
            if !SiteFingerprint::is_retired(&name) {
                continue;
            }
            let mut bytes = 0;
            for entry in fs::read_dir(root.join(&name))? {
                let meta = entry?.metadata()?;
                if meta.is_file() {
                    bytes += meta.len();
                }
            }
            out.push(RetiredLog { name, bytes });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_model::{AttrId, Attribute, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::categorical("make", ["a", "b", "c"]).unwrap())
            .finish()
            .unwrap()
    }

    fn q(pairs: &[(u16, u16)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_pairs(pairs.iter().map(|&(a, v)| (AttrId(a), v))).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hds-l2-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<FactRecord> {
        vec![
            FactRecord::empty(q(&[(0, 1), (1, 0)]), 100),
            FactRecord::overflow(q(&[(0, 0)]), 200),
            FactRecord::valid(q(&[(0, 1)]), vec![Row::new(42, vec![1, 2], vec![1.5])], 300),
            FactRecord::count(q(&[(1, 1)]), 7, 400),
        ]
    }

    fn row(key: u64) -> Row {
        Row::new(
            key,
            vec![(key % 2) as u16, (key % 3) as u16],
            vec![key as f64 * 0.5],
        )
    }

    /// Facts whose valid row sets share tuples, as a session's do.
    fn shared_records() -> Vec<FactRecord> {
        vec![
            FactRecord::valid(q(&[(0, 0)]), vec![row(1), row(2)], 10),
            FactRecord::empty(q(&[(0, 1), (1, 0)]), 20),
            FactRecord::valid(q(&[(1, 1)]), vec![row(2), row(3), row(4)], 30),
            FactRecord::count(q(&[(1, 2)]), 7, 40),
            FactRecord::valid(q(&[(0, 1)]), vec![row(5), row(1)], 50),
            FactRecord::overflow(q(&[]), 60),
        ]
    }

    /// The log's lines, in file order.
    fn seg_lines(root: &Path, fp: &SiteFingerprint) -> Vec<String> {
        let seg = root.join(fp.as_str()).join("seg-00000.jsonl");
        let text = fs::read_to_string(seg).unwrap();
        text.lines().map(str::to_owned).collect()
    }

    fn is_row_line(line: &str) -> bool {
        line.starts_with("{\"Row\":")
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let s = schema();
        let a = SiteFingerprint::derive(&s, 10, true, Some(1));
        let b = SiteFingerprint::derive(&s, 10, true, Some(1));
        assert_eq!(a, b, "same inputs, same identity");
        assert_ne!(a, SiteFingerprint::derive(&s, 11, true, Some(1)), "k");
        assert_ne!(a, SiteFingerprint::derive(&s, 10, false, Some(1)), "counts");
        assert_ne!(a, SiteFingerprint::derive(&s, 10, true, Some(2)), "dataset");
        assert_ne!(a, SiteFingerprint::derive(&s, 10, true, None), "no digest");
        assert!(a.as_str().starts_with("hds2-"));
        assert_eq!(SiteFingerprint::parse(a.as_str()), Some(a.clone()));
        assert_eq!(SiteFingerprint::parse("hds2-xyz"), None);
        assert_eq!(SiteFingerprint::parse("hds1-0123456789abcdef"), None);
        assert_eq!(
            SiteFingerprint::parse("hds2-0123456789ABCDEF"),
            None,
            "uppercase is not our rendering"
        );
        // Other versions of the same shape are retired, not foreign.
        assert!(SiteFingerprint::is_retired("hds1-0123456789abcdef"));
        assert!(SiteFingerprint::is_retired("hds10-0123456789abcdef"));
        assert!(!SiteFingerprint::is_retired(a.as_str()));
        assert!(!SiteFingerprint::is_retired("hds-0123456789abcdef"));
        assert!(!SiteFingerprint::is_retired("hds1-0123456789ABCDEF"));
        assert!(!SiteFingerprint::is_retired("not-a-fingerprint"));
    }

    #[test]
    fn append_load_roundtrip() {
        let root = tmpdir("roundtrip");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let log = L2Log::open(&root, fp.clone()).unwrap();
        let recs = sample_records();
        for r in &recs {
            log.append(r).unwrap();
        }
        assert_eq!(log.load().unwrap(), recs);
        // A fresh handle (new process) sees the same facts and appends
        // after them.
        let log2 = L2Log::open(&root, fp).unwrap();
        log2.append(&FactRecord::count(q(&[(0, 0)]), 3, 500))
            .unwrap();
        let all = log2.load().unwrap();
        assert_eq!(all.len(), recs.len() + 1);
        assert_eq!(all[..recs.len()], recs[..]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_preserves_order() {
        let root = tmpdir("rotate");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let cfg = L2Config {
            rotate_records: 3,
            compact_at_segments: 100,
        };
        let log = L2Log::open_with(&root, fp, cfg).unwrap();
        for i in 0..10u64 {
            log.append(&FactRecord::count(q(&[(0, (i % 2) as u16)]), i, i))
                .unwrap();
        }
        let stats = log.stats().unwrap();
        assert_eq!(stats.segments, 4, "10 records at 3/segment");
        assert_eq!(stats.facts, 10);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.skipped, 0);
        let loaded = log.load().unwrap();
        let stamps: Vec<u64> = loaded.iter().map(|r| r.learned_at).collect();
        assert_eq!(stamps, (0..10).collect::<Vec<_>>(), "learn order preserved");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_dedups_keeping_earliest_stamp() {
        let root = tmpdir("compact");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let cfg = L2Config {
            rotate_records: 2,
            compact_at_segments: 100,
        };
        let log = L2Log::open_with(&root, fp, cfg).unwrap();
        // The same count fact learned in three "runs" at different stamps,
        // plus a distinct fact per run.
        for (run, stamp) in [(0u16, 500u64), (1, 100), (2, 900)] {
            log.append(&FactRecord::count(q(&[(0, 0)]), 7, stamp))
                .unwrap();
            log.append(&FactRecord::empty(q(&[(0, 1), (1, run)]), stamp))
                .unwrap();
        }
        let report = log.compact().unwrap();
        assert_eq!(report.facts_before, 6);
        assert_eq!(report.facts_after, 4, "3 count dupes collapse to 1");
        assert_eq!(report.rows_after, 0);
        assert!(report.segments_before >= 3);
        let loaded = log.load().unwrap();
        assert_eq!(loaded.len(), 4);
        let the_count = loaded.iter().find(|r| r.kind == "count").unwrap();
        assert_eq!(the_count.learned_at, 100, "earliest stamp wins");
        assert_eq!(log.stats().unwrap().segments, 1);
        // Appends continue cleanly after compaction.
        log.append(&FactRecord::overflow(q(&[(1, 2)]), 950))
            .unwrap();
        assert_eq!(log.load().unwrap().len(), 5);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_compacts_when_segments_pile_up() {
        let root = tmpdir("autocompact");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let cfg = L2Config {
            rotate_records: 1,
            compact_at_segments: 3,
        };
        {
            let log = L2Log::open_with(&root, fp.clone(), cfg).unwrap();
            for i in 0..5u64 {
                log.append(&FactRecord::count(q(&[(0, 0)]), 7, i)).unwrap();
            }
            assert_eq!(log.stats().unwrap().segments, 5);
        }
        let log = L2Log::open_with(&root, fp, cfg).unwrap();
        let stats = log.stats().unwrap();
        assert_eq!(stats.segments, 1, "startup compaction collapsed the pile");
        assert_eq!(stats.facts, 1, "dupes deduplicated");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn clear_removes_everything() {
        let root = tmpdir("clear");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let log = L2Log::open(&root, fp).unwrap();
        for r in sample_records() {
            log.append(&r).unwrap();
        }
        log.clear().unwrap();
        assert_eq!(log.stats().unwrap(), L2DirStats::default());
        assert!(log.load().unwrap().is_empty());
        // Usable again after the wipe.
        log.append(&FactRecord::empty(q(&[(0, 0)]), 1)).unwrap();
        assert_eq!(log.load().unwrap().len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_and_garbage_prefix_are_skipped_not_fatal() {
        let root = tmpdir("torn");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let recs = sample_records();
        {
            let log = L2Log::open(&root, fp.clone()).unwrap();
            for r in &recs {
                log.append(r).unwrap();
            }
        }
        let seg = root.join(fp.as_str()).join("seg-00000.jsonl");
        let mut bytes = fs::read(&seg).unwrap();
        // Torn final record: half a line, no trailing newline.
        let first_line = bytes.split(|&b| b == b'\n').next().unwrap().to_vec();
        bytes.extend_from_slice(&first_line[..first_line.len() / 2]);
        // And a garbage prefix in front of everything.
        let mut poisoned = b"\x00\xffgarbage\n".to_vec();
        poisoned.extend_from_slice(&bytes);
        fs::write(&seg, &poisoned).unwrap();

        let log = L2Log::open(&root, fp).unwrap();
        let loaded = log.load().unwrap();
        assert_eq!(loaded, recs, "good records survive around the damage");
        assert_eq!(log.skipped(), 2, "garbage line + torn tail counted");
        let stats = log.stats().unwrap();
        assert_eq!(stats.facts, recs.len() as u64);
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.skipped, 2);
        // New appends land after the torn line, on their own line.
        log.append(&FactRecord::count(q(&[(1, 2)]), 9, 999))
            .unwrap();
        assert_eq!(log.load().unwrap().len(), recs.len() + 1);
        fs::remove_dir_all(&root).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Replaying an arbitrary truncation of a valid log — anywhere in
        /// the file, row records included — never panics, yields a prefix
        /// of the original facts, and counts at most one skip (the torn
        /// tail).
        #[test]
        fn arbitrary_truncations_replay_a_prefix(cut in 0.0f64..1.0, garbage in 0usize..3) {
            let root = tmpdir("trunc-prop");
            let fp = SiteFingerprint::derive(&schema(), 5, false, None);
            let recs = shared_records();
            {
                let log = L2Log::open(&root, fp.clone()).unwrap();
                for r in &recs {
                    log.append(r).unwrap();
                }
            }
            let seg = root.join(fp.as_str()).join("seg-00000.jsonl");
            let mut bytes = fs::read(&seg).unwrap();
            let cut = (cut * (bytes.len() + 1) as f64) as usize;
            bytes.truncate(cut);
            // Optionally smear garbage bytes over the fresh cut too.
            bytes.extend(std::iter::repeat_n(0xFF, garbage));
            fs::write(&seg, &bytes).unwrap();

            let log = L2Log::open(&root, fp).unwrap();
            let loaded = log.load().unwrap();
            proptest::prop_assert!(loaded.len() <= recs.len());
            proptest::prop_assert_eq!(&recs[..loaded.len()], &loaded[..], "always a clean prefix");
            proptest::prop_assert!(log.skipped() <= 1, "at most the torn tail is skipped");
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn rows_are_written_once_across_facts_and_handles() {
        let root = tmpdir("rows-once");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let recs = shared_records();
        {
            let log = L2Log::open(&root, fp.clone()).unwrap();
            for r in &recs {
                log.append(r).unwrap();
            }
            let stats = log.stats().unwrap();
            assert_eq!(stats.rows, 5, "keys 1..=5, each written once");
            assert_eq!(stats.facts, recs.len() as u64);
        }
        // Every row line comes before the first fact that names it.
        let lines = seg_lines(&root, &fp);
        assert_eq!(lines.len(), 5 + recs.len());
        assert!(is_row_line(&lines[0]) && is_row_line(&lines[1]));
        assert!(lines[2].starts_with("{\"Valid\":"));

        // A later handle learns the on-disk keys from its load and writes
        // only the tuple it has not seen.
        let log = L2Log::open(&root, fp.clone()).unwrap();
        assert_eq!(log.load().unwrap(), recs);
        let more = FactRecord::valid(q(&[(0, 0), (1, 1)]), vec![row(2), row(6)], 70);
        log.append(&more).unwrap();
        assert_eq!(log.stats().unwrap().rows, 6);
        assert_eq!(log.load().unwrap().last(), Some(&more));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_damaged_row_skips_only_the_facts_that_name_it() {
        let root = tmpdir("damaged-row");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let recs = shared_records();
        {
            let log = L2Log::open(&root, fp.clone()).unwrap();
            for r in &recs {
                log.append(r).unwrap();
            }
        }
        // Overwrite key 3's row record, mid-log, with same-length garbage.
        let mut lines = seg_lines(&root, &fp);
        let ix = lines
            .iter()
            .position(|l| l.starts_with("{\"Row\":[3,"))
            .unwrap();
        lines[ix] = "#".repeat(lines[ix].len());
        let seg = root.join(fp.as_str()).join("seg-00000.jsonl");
        fs::write(&seg, lines.join("\n") + "\n").unwrap();

        let log = L2Log::open(&root, fp).unwrap();
        let loaded = log.load().unwrap();
        let mut expect = recs.clone();
        expect.remove(2); // the one fact naming key 3
        assert_eq!(loaded, expect, "every later fact still loads");
        assert_eq!(log.skipped(), 2, "the damaged line and the fact naming it");
        let stats = log.stats().unwrap();
        assert_eq!((stats.facts, stats.rows, stats.skipped), (5, 4, 2));

        // Key 3 is not on disk as far as the writer knows: the next fact
        // naming it writes its row again, and that fact loads.
        let again = FactRecord::valid(q(&[(1, 0)]), vec![row(3)], 80);
        log.append(&again).unwrap();
        let loaded = log.load().unwrap();
        assert_eq!(loaded.len(), expect.len() + 1);
        assert_eq!(loaded.last(), Some(&again));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn conflicting_rows_skip_every_fact_that_names_the_key() {
        let root = tmpdir("conflict");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        // Two handles that never loaded: each writes the rows it has not
        // written itself, as two processes sharing one log would.
        let a = L2Log::open(&root, fp.clone()).unwrap();
        let b = L2Log::open(&root, fp.clone()).unwrap();
        let changed = Row::new(1, vec![1, 2], vec![9.0]);
        a.append(&FactRecord::valid(q(&[(0, 0)]), vec![row(1), row(2)], 10))
            .unwrap();
        b.append(&FactRecord::valid(q(&[(0, 1)]), vec![changed, row(3)], 20))
            .unwrap();
        let untouched = FactRecord::valid(q(&[(1, 0)]), vec![row(2)], 30);
        a.append(&untouched).unwrap();
        // The same content written twice is no conflict.
        let twice = FactRecord::valid(q(&[(1, 1)]), vec![row(3)], 40);
        a.append(&twice).unwrap();

        let log = L2Log::open(&root, fp).unwrap();
        assert_eq!(log.load().unwrap(), vec![untouched.clone(), twice.clone()]);
        assert_eq!(log.skipped(), 2, "both facts naming key 1 are skipped");
        let stats = log.stats().unwrap();
        assert_eq!((stats.facts, stats.rows, stats.skipped), (2, 5, 2));

        // Compaction drops the skipped facts and the rows only they named.
        let report = log.compact().unwrap();
        assert_eq!((report.facts_after, report.rows_after), (2, 2));
        assert_eq!(log.load().unwrap(), vec![untouched, twice]);
        assert_eq!(log.stats().unwrap().skipped, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_changed_row_from_a_loaded_handle_conflicts_on_reload() {
        let root = tmpdir("changed-row");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let first = FactRecord::valid(q(&[(0, 0)]), vec![row(1), row(2)], 10);
        let other = FactRecord::valid(q(&[(1, 0)]), vec![row(2)], 20);
        {
            let log = L2Log::open(&root, fp.clone()).unwrap();
            log.append(&first).unwrap();
            log.append(&other).unwrap();
        }
        // A later run attaches the log, then learns key 1 with new content
        // from a site that changed under the same fingerprint.
        let log = L2Log::open(&root, fp.clone()).unwrap();
        assert_eq!(log.load().unwrap(), vec![first, other.clone()]);
        let changed = Row::new(1, vec![1, 2], vec![9.0]);
        log.append(&FactRecord::valid(q(&[(0, 1)]), vec![changed, row(3)], 30))
            .unwrap();
        // An unchanged tuple is still not written again.
        let unchanged = FactRecord::valid(q(&[(1, 1)]), vec![row(2)], 40);
        log.append(&unchanged).unwrap();
        assert_eq!(log.stats().unwrap().rows, 4, "keys 1, 2, 1 changed, 3");

        let log = L2Log::open(&root, fp).unwrap();
        assert_eq!(log.load().unwrap(), vec![other, unchanged]);
        assert_eq!(log.skipped(), 2, "both facts naming key 1 are skipped");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_writes_referenced_rows_first_and_drops_the_rest() {
        let root = tmpdir("compact-rows");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let recs = shared_records();
        let log = L2Log::open(&root, fp.clone()).unwrap();
        for r in &recs {
            log.append(r).unwrap();
        }
        // The first fact relearned earlier, and a row no fact names.
        let mut earlier = recs[0].clone();
        earlier.learned_at = 5;
        log.append(&earlier).unwrap();
        let seg = root.join(fp.as_str()).join("seg-00000.jsonl");
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(b"{\"Row\":[99,[0,0],[1.0]]}\n");
        fs::write(&seg, bytes).unwrap();

        let report = log.compact().unwrap();
        assert_eq!(report.facts_before, recs.len() as u64 + 1);
        assert_eq!(report.facts_after, recs.len() as u64);
        assert_eq!(report.rows_after, 5);
        let lines = seg_lines(&root, &fp);
        assert_eq!(lines.len(), 5 + recs.len());
        assert!(lines[..5].iter().all(|l| is_row_line(l)), "rows first");
        assert!(lines[5..].iter().all(|l| !is_row_line(l)), "then facts");
        assert!(!lines.iter().any(|l| l.starts_with("{\"Row\":[99,")));

        let mut expect = recs;
        expect[0] = earlier;
        assert_eq!(
            log.load().unwrap(),
            expect,
            "the same facts, earliest stamps"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn list_sites_finds_only_fingerprint_dirs() {
        let root = tmpdir("list");
        let fp1 = SiteFingerprint::derive(&schema(), 5, false, None);
        let fp2 = SiteFingerprint::derive(&schema(), 9, true, Some(3));
        L2Log::open(&root, fp1.clone()).unwrap();
        L2Log::open(&root, fp2.clone()).unwrap();
        fs::create_dir_all(root.join("not-a-fingerprint")).unwrap();
        let old = root.join("hds1-0123456789abcdef");
        fs::create_dir_all(&old).unwrap();
        fs::write(old.join("seg-00000.jsonl"), b"0123456789").unwrap();
        let mut expect = vec![fp1, fp2];
        expect.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        assert_eq!(L2Log::list_sites(&root).unwrap(), expect);
        assert!(L2Log::list_sites(&root.join("missing")).unwrap().is_empty());
        assert_eq!(
            L2Log::list_retired(&root).unwrap(),
            vec![RetiredLog {
                name: "hds1-0123456789abcdef".into(),
                bytes: 10
            }]
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
