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
//! Attaching reads each segment once and indexes it without decoding a
//! row. A row line gives its key, by a prefix parse of `{"Row":[<key>,`,
//! and its byte range; a fact line gives its kind, query, count and stamp,
//! and a valid fact the byte range of its key list. A valid fact's keys
//! and rows are decoded the first time a lookup uses it
//! (`L2Index::rows`), each row record at most once per attach, and the
//! fact then holds its rows' places in the index rather than copies. One
//! cursor reads every line; [`L2Log::load`], [`L2Log::stats`] and
//! [`L2Log::compact`] read everything through the same index and row
//! decoder. The writer learns from the same read which keys are on disk,
//! and decodes one of those rows only when an append names its key.
//!
//! A valid fact is unusable, and is skipped and counted, when one of its
//! keys has no row record ahead of it that decodes (the row was torn, lost
//! or damaged), or when two row records for the key that decode differ in
//! their bytes: a changed site must never answer with another fact's copy
//! of a tuple. A row record is a line that starts with a row key and ends
//! with the record's closing brace, so a torn row, which lost its brace, is
//! not one. Torn final records, garbage prefixes, and any other line that
//! is no record are skipped and counted too, never a panic — crash
//! mid-append must not poison the log. After an attach, a fact is found
//! unusable only when a lookup first uses it; the history tier then drops
//! it and answers as if it had never been stored.
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
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hdsampler_model::{AttrId, ConjunctiveQuery, DomIx, Row, Schema};
use serde::Serialize;

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

/// What a persisted fact says about its query.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// The exact result count.
    Count(u64),
    /// The query matches nothing.
    Empty,
    /// The query's result overflows the display limit.
    Overflow,
    /// The complete result rows — that completeness is the fact — shared
    /// with the history index that learned or loads them.
    Valid(Arc<[Row]>),
}

/// One persisted fact: the query, what was learned about it, and
/// `learned_at`, the site-clock time (virtual ms) it was learned at in the
/// run that wrote it.
///
/// On disk a valid fact stores only its rows' keys; [`L2Log::load`]
/// resolves them back into rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FactRecord {
    /// The query the fact is about.
    pub query: ConjunctiveQuery,
    /// What was learned.
    pub fact: Fact,
    /// Learn time on the writing run's site clock (ms).
    pub learned_at: u64,
}

impl FactRecord {
    /// A learned exact count.
    pub fn count(query: ConjunctiveQuery, count: u64, learned_at: u64) -> Self {
        FactRecord {
            query,
            fact: Fact::Count(count),
            learned_at,
        }
    }

    /// A learned empty classification.
    pub fn empty(query: ConjunctiveQuery, learned_at: u64) -> Self {
        FactRecord {
            query,
            fact: Fact::Empty,
            learned_at,
        }
    }

    /// A learned overflow classification.
    pub fn overflow(query: ConjunctiveQuery, learned_at: u64) -> Self {
        FactRecord {
            query,
            fact: Fact::Overflow,
            learned_at,
        }
    }

    /// A learned valid classification with its complete rows.
    pub fn valid(query: ConjunctiveQuery, rows: impl Into<Arc<[Row]>>, learned_at: u64) -> Self {
        FactRecord {
            query,
            fact: Fact::Valid(rows.into()),
            learned_at,
        }
    }

    /// A valid fact's rows; `None` for any other fact.
    pub fn rows(&self) -> Option<&[Row]> {
        match &self.fact {
            Fact::Valid(rows) => Some(rows),
            _ => None,
        }
    }
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned())
}

/// A query on disk: its `[attr, value]` pairs.
type Pairs = Vec<(u16, DomIx)>;

/// One line of the log, as the writer writes it. Serde tags each record
/// with its variant name, the shapes of the module docs; [`Cursor`] reads
/// them back.
#[derive(Serialize)]
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
    let line = match &rec.fact {
        Fact::Count(count) => Record::Count(query, *count, at),
        Fact::Empty => Record::Empty(query, at),
        Fact::Overflow => Record::Overflow(query, at),
        Fact::Valid(rows) => Record::Valid(query, rows.iter().map(|r| r.key).collect(), at),
    };
    push_record(buf, &line)
}

/// The row decoder: `line` as the row record of `key`, `None` when it is
/// not one.
fn decode_row(line: &str, key: u64) -> Option<Row> {
    let mut c = Cursor::new(line);
    if c.open()? != "Row" || c.u64()? != key {
        return None;
    }
    c.eat(b',')?;
    let values = c.list(Cursor::u16)?;
    c.eat(b',')?;
    let measures = c.list(Cursor::f64)?;
    c.close()?;
    Some(Row {
        key,
        values: values.into_boxed_slice(),
        measures: measures.into_boxed_slice(),
    })
}

/// A reader over one line of the log for the record shapes the writer
/// writes, JSON whitespace allowed between tokens. It reads a row line's
/// key and a fact line whole, except a valid fact's key list, which it
/// only delimits.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str) -> Self {
        Cursor { line, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `b` after whitespace.
    fn eat(&mut self, b: u8) -> Option<()> {
        self.ws();
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    /// Whether the next token is `b`, consumed if so.
    fn next_is(&mut self, b: u8) -> bool {
        self.eat(b).is_some()
    }

    /// The text from here up to the next `end`, which is consumed.
    fn until(&mut self, end: char) -> Option<&'a str> {
        let rest = &self.line[self.pos..];
        let len = rest.find(end)?;
        self.pos += len + 1;
        Some(&rest[..len])
    }

    fn u64(&mut self) -> Option<u64> {
        self.ws();
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(n)
    }

    fn u16(&mut self) -> Option<u16> {
        u16::try_from(self.u64()?).ok()
    }

    /// A JSON number, parsed as Rust parses floats.
    fn f64(&mut self) -> Option<f64> {
        self.ws();
        let start = self.pos;
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
            self.pos += 1;
        }
        self.line[start..self.pos].parse().ok()
    }

    /// `[item,...]`, each item read by `item`. The list is sized by the
    /// commas before the first `]`: exactly, when items hold no brackets.
    fn list<T>(&mut self, item: fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat(b'[')?;
        let inner = &self.line[self.pos..];
        let inner = &inner[..inner.find(']')?];
        let mut items = Vec::with_capacity(commas(inner) + 1);
        if self.next_is(b']') {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.next_is(b']') {
                return Some(items);
            }
            self.eat(b',')?;
        }
    }

    /// A record's closing `]}` and the end of the line.
    fn close(&mut self) -> Option<()> {
        self.eat(b']')?;
        self.eat(b'}')?;
        self.ws();
        (self.pos == self.line.len()).then_some(())
    }

    /// `{"<tag>":[`, giving the tag.
    fn open(&mut self) -> Option<&'a str> {
        self.eat(b'{')?;
        self.eat(b'"')?;
        let tag = self.until('"')?;
        self.eat(b':')?;
        self.eat(b'[')?;
        Some(tag)
    }

    /// A row line's `<key>,`, when the line ends with the record's closing
    /// brace: a row torn anywhere has lost it.
    fn row_key(&mut self) -> Option<u64> {
        let key = self.u64()?;
        self.eat(b',')?;
        self.line.trim_ascii_end().ends_with('}').then_some(key)
    }

    /// A query's `[[attr,value],...]`.
    fn query(&mut self) -> Option<ConjunctiveQuery> {
        ConjunctiveQuery::from_pairs(self.list(Cursor::predicate)?).ok()
    }

    /// One `[attr,value]` of a query.
    fn predicate(&mut self) -> Option<(AttrId, DomIx)> {
        self.eat(b'[')?;
        let attr = self.u16()?;
        self.eat(b',')?;
        let value = self.u16()?;
        self.eat(b']')?;
        Some((AttrId(attr), value))
    }

    /// A valid fact's `[key,...]`, delimited but not read: its range,
    /// brackets included, and how many keys its commas say it lists.
    /// [`L2Index::rows`] reads it with [`Cursor::list`].
    fn key_list(&mut self) -> Option<(Range<usize>, u64)> {
        self.eat(b'[')?;
        let start = self.pos - 1;
        let inner = self.until(']')?;
        let keys = if inner.trim_ascii().is_empty() {
            0
        } else {
            commas(inner) as u64 + 1
        };
        Some((start..self.pos, keys))
    }

    /// The rest of a fact line after its tag, the line starting at byte
    /// `at` of the log text; `None` unless it is one whole fact.
    fn fact(&mut self, tag: &str, at: usize) -> Option<IndexedFact> {
        let query = self.query()?;
        let kind = match tag {
            "Count" => {
                self.eat(b',')?;
                Indexed::Count(self.u64()?)
            }
            "Empty" => Indexed::Empty,
            "Overflow" => Indexed::Overflow,
            "Valid" => {
                self.eat(b',')?;
                let (keys, len) = self.key_list()?;
                Indexed::Valid {
                    keys: at + keys.start..at + keys.end,
                    len,
                    slots: None,
                }
            }
            _ => return None,
        };
        self.eat(b',')?;
        let learned_at = self.u64()?;
        self.close()?;
        Some(IndexedFact {
            query,
            learned_at,
            kind,
            at,
        })
    }
}

/// How many commas `s` holds.
fn commas(s: &str) -> usize {
    s.bytes().filter(|&b| b == b',').count()
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

/// The row records one read of the log found, by key, over the log's
/// text; each key's row is decoded on first use. The read's index and the
/// log's writer share it, so each record is decoded at most once whichever
/// of them needs it first.
#[derive(Debug, Default)]
struct RowTable {
    /// Every segment's text, oldest first. Bytes that are not UTF-8 became
    /// U+FFFD, which no record holds, so their lines stay no record.
    text: String,
    /// Listing key → its place in `keys`.
    slots: KeyMap<u32>,
    keys: Vec<KeyRows>,
}

/// One key's row records.
#[derive(Debug)]
struct KeyRows {
    key: u64,
    /// Byte range of the first record in the log text.
    first: Range<usize>,
    /// Later records whose bytes differ from the first's; almost always
    /// none.
    others: Vec<Range<usize>>,
    /// Once first used: where the first record that decodes starts, and
    /// its row. `None` when no record decodes, or two that do have
    /// different bytes.
    row: OnceLock<Option<(usize, Row)>>,
}

impl KeyRows {
    fn records(&self) -> impl Iterator<Item = &Range<usize>> {
        std::iter::once(&self.first).chain(&self.others)
    }
}

impl RowTable {
    /// Add the row record of `key` at `line` of `text`, the log text this
    /// table will hold: a key's first record takes a place in the table, and
    /// a later one is kept beside it when its bytes differ.
    fn add(&mut self, text: &str, key: u64, line: Range<usize>) {
        match self.slots.entry(key) {
            Entry::Vacant(v) => {
                v.insert(self.keys.len() as u32);
                self.keys.push(KeyRows {
                    key,
                    first: line,
                    others: Vec::new(),
                    row: OnceLock::new(),
                });
            }
            Entry::Occupied(o) => {
                let rows = &mut self.keys[*o.get() as usize];
                if text[rows.first.clone()] != text[line.clone()] {
                    rows.others.push(line);
                }
            }
        }
    }

    /// The row at place `slot`, decoded on first use, with where its record
    /// starts. A record that does not decode counts as no record; two that
    /// do and differ in their bytes make the key unusable.
    fn row_at(&self, slot: usize) -> Option<(usize, &Row)> {
        let rows = &self.keys[slot];
        let decoded = rows.row.get_or_init(|| {
            let mut usable: Option<(&Range<usize>, Row)> = None;
            for line in rows.records() {
                let text = &self.text[line.clone()];
                match &usable {
                    None => usable = decode_row(text, rows.key).map(|row| (line, row)),
                    Some((first, _)) => {
                        if text != &self.text[(*first).clone()]
                            && decode_row(text, rows.key).is_some()
                        {
                            return None;
                        }
                    }
                }
            }
            usable.map(|(line, row)| (line.start, row))
        });
        decoded.as_ref().map(|(start, row)| (*start, row))
    }

    /// The row of `key`: `None` when none of its records decodes, or it
    /// has none, or two that decode differ.
    fn row(&self, key: u64) -> Option<&Row> {
        Some(self.row_at(*self.slots.get(&key)? as usize)?.1)
    }

    /// Row records that do not decode.
    fn broken(&self) -> u64 {
        let lines = self
            .keys
            .iter()
            .flat_map(|rows| rows.records().map(|l| (rows.key, l)));
        lines
            .filter(|(key, line)| decode_row(&self.text[(*line).clone()], *key).is_none())
            .count() as u64
    }
}

/// A fact line as the index holds it.
#[derive(Debug)]
struct IndexedFact {
    query: ConjunctiveQuery,
    learned_at: u64,
    kind: Indexed,
    /// Where its line starts in the log text: each of a valid fact's keys
    /// needs a row record that starts before it.
    at: usize,
}

#[derive(Debug)]
enum Indexed {
    Count(u64),
    Empty,
    Overflow,
    /// The range of the log text that holds the key list, how many keys
    /// it lists, and their rows' places in the table once resolved.
    Valid {
        keys: Range<usize>,
        len: u64,
        slots: Option<Box<[u32]>>,
    },
}

/// What a fact teaches the history index before any of its rows is
/// decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// An exact count.
    Count(u64),
    /// An empty classification.
    Empty,
    /// An overflow classification.
    Overflow,
    /// A valid classification with this many rows.
    Valid(u64),
}

/// The log as one read indexes it: row records by key and facts in log
/// order, with nothing decoded that a lookup has not asked for.
#[derive(Debug, Default)]
pub(crate) struct L2Index {
    table: Arc<RowTable>,
    facts: Vec<IndexedFact>,
    /// Lines that carry a row key, duplicates included.
    row_records: u64,
    /// Bytes read.
    bytes: u64,
    /// Lines that are no record and facts dropped as unusable (and, after
    /// [`records`](Self::records), row records that do not decode).
    skipped: u64,
    /// The log's own count of the same, ticked alongside (a detached one
    /// for [`L2Log::stats`], which counts nothing against the log).
    log_skipped: Arc<AtomicU64>,
}

impl L2Index {
    /// Read and index `segs` in log order; also where appends resume in
    /// the last one.
    fn read(segs: &[PathBuf], log_skipped: Arc<AtomicU64>) -> std::io::Result<(Self, SegmentTail)> {
        let mut table = RowTable::default();
        let mut ranges = Vec::with_capacity(segs.len());
        let mut ix = L2Index {
            log_skipped,
            ..L2Index::default()
        };
        let mut tail = SegmentTail::default();
        for seg in segs {
            let bytes = fs::read(seg)?;
            ix.bytes += bytes.len() as u64;
            tail = SegmentTail::of(&bytes);
            let text = String::from_utf8(bytes)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            let start = table.text.len();
            if start == 0 {
                table.text = text;
            } else {
                table.text.push_str(&text);
            }
            ranges.push(start..table.text.len());
        }
        // Lines are split per segment: a torn last line never runs on
        // into the next segment's first.
        let text = std::mem::take(&mut table.text);
        for range in ranges {
            for line in text[range].split('\n') {
                if !line.bytes().all(|b| b.is_ascii_whitespace()) {
                    let at = line.as_ptr() as usize - text.as_ptr() as usize;
                    ix.line(&mut table, &text, at..at + line.len());
                }
            }
        }
        table.text = text;
        ix.table = Arc::new(table);
        Ok((ix, tail))
    }

    /// Index the line at `range` of `text`.
    fn line(&mut self, table: &mut RowTable, text: &str, range: Range<usize>) {
        let mut c = Cursor::new(&text[range.clone()]);
        match c.open() {
            Some("Row") => {
                if let Some(key) = c.row_key() {
                    self.row_records += 1;
                    return table.add(text, key, range);
                }
            }
            Some(tag) => {
                if let Some(fact) = c.fact(tag, range.start) {
                    return self.facts.push(fact);
                }
            }
            None => {}
        }
        self.skip(1);
    }

    fn skip(&mut self, n: u64) {
        self.skipped += n;
        self.log_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// The facts in log order, each with its query and its shape.
    pub(crate) fn facts(&self) -> impl Iterator<Item = (&ConjunctiveQuery, Shape)> {
        self.facts.iter().map(|f| {
            let shape = match f.kind {
                Indexed::Count(n) => Shape::Count(n),
                Indexed::Empty => Shape::Empty,
                Indexed::Overflow => Shape::Overflow,
                Indexed::Valid { len, .. } => Shape::Valid(len),
            };
            (&f.query, shape)
        })
    }

    /// Facts indexed and not dropped.
    pub(crate) fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether fact `id` is a valid one.
    pub(crate) fn is_valid(&self, id: usize) -> bool {
        matches!(self.facts[id].kind, Indexed::Valid { .. })
    }

    /// Lines that are no record and facts dropped, so far.
    pub(crate) fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The places in the table of the rows of the key list at `keys`, each
    /// decoded, for a fact whose line starts at byte `at`.
    fn resolve(&self, keys: Range<usize>, at: usize) -> Option<Box<[u32]>> {
        let table = &*self.table;
        let keys = Cursor::new(&table.text[keys]).list(Cursor::u64)?;
        let mut slots = Vec::with_capacity(keys.len());
        for key in keys {
            let slot = *table.slots.get(&key)?;
            if table.row_at(slot as usize)?.0 > at {
                return None;
            }
            slots.push(slot);
        }
        Some(slots.into_boxed_slice())
    }

    /// Valid fact `id`'s rows, in order, resolved the first time they are
    /// asked for. `None` when the fact is unusable: one of its keys has no
    /// row record ahead of it, or that record does not decode or
    /// conflicts. The caller then drops it ([`drop_fact`](Self::drop_fact)).
    pub(crate) fn rows(&mut self, id: usize) -> Option<impl Iterator<Item = &Row>> {
        let fact = &self.facts[id];
        if let Indexed::Valid {
            keys, slots: None, ..
        } = &fact.kind
        {
            let resolved = self.resolve(keys.clone(), fact.at)?;
            if let Indexed::Valid { slots, .. } = &mut self.facts[id].kind {
                *slots = Some(resolved);
            }
        }
        let Indexed::Valid {
            slots: Some(slots), ..
        } = &self.facts[id].kind
        else {
            return None;
        };
        let table = &*self.table;
        Some(
            slots
                .iter()
                .filter_map(move |&slot| Some(table.row_at(slot as usize)?.1)),
        )
    }

    /// Drop fact `id`, which [`rows`](Self::rows) found unusable, and
    /// count it. Later facts move down one place.
    pub(crate) fn drop_fact(&mut self, id: usize) {
        self.facts.remove(id);
        self.skip(1);
    }

    /// Every fact, in log order, with every row record decoded first;
    /// row records that do not decode and unusable facts are skipped and
    /// counted.
    fn records(&mut self) -> Vec<FactRecord> {
        let broken = self.table.broken();
        self.skip(broken);
        let mut out = Vec::with_capacity(self.facts.len());
        for id in 0..self.facts.len() {
            let fact = match self.facts[id].kind {
                Indexed::Count(n) => Fact::Count(n),
                Indexed::Empty => Fact::Empty,
                Indexed::Overflow => Fact::Overflow,
                Indexed::Valid { .. } => match self.rows(id).map(|rows| rows.cloned().collect()) {
                    Some(rows) => Fact::Valid(rows),
                    None => {
                        self.skip(1);
                        continue;
                    }
                },
            };
            let f = &self.facts[id];
            out.push(FactRecord {
                query: f.query.clone(),
                fact,
                learned_at: f.learned_at,
            });
        }
        out
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
    /// Row records (lines that carry a row key), duplicates included.
    pub rows: u64,
    /// Bytes on disk across all segments.
    pub bytes: u64,
    /// Lines that are no record, row records that do not decode, and
    /// facts whose rows do not resolve.
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
    /// Damaged lines and unresolvable facts dropped by the pass.
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
    /// The row records the last attach or load read.
    read: Arc<RowTable>,
    /// Listing key → [`row_digest`] of its row on disk, as this handle
    /// wrote it or first compared it with `read`: a valid fact writes the
    /// rows missing from both or whose content changed, so a changed tuple
    /// reaches the disk and the loader sees the conflict.
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
    /// Shared with the indexes attaches hand out, which count what they
    /// find unusable on first use.
    skipped: Arc<AtomicU64>,
}

impl L2Log {
    /// Open (creating if absent) the log for `fingerprint` under `root`,
    /// compacting first when the segment count reached
    /// [`L2Config::compact_at_segments`]. Otherwise no segment is read
    /// here: the attach or [`load`](Self::load) that follows reads each one
    /// once and learns where appends resume, and an append made without
    /// one counts the newest segment's lines itself, once.
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
                read: Arc::default(),
                on_disk: KeyMap::default(),
            }),
            skipped: Arc::default(),
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

    /// What reads through this handle skipped: lines that are no record,
    /// row records that do not decode, and valid facts whose rows do not
    /// resolve — at load, or at first use after an attach.
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

    /// Read and index every segment, once, decoding no row: what an
    /// executor attaches as its L2 tier. The writer shares the row records
    /// read, and learns where appends resume (a torn last line in the
    /// newest segment is closed first).
    pub(crate) fn attach(&self) -> std::io::Result<L2Index> {
        let segs = self.segment_paths()?;
        let (ix, tail) = L2Index::read(&segs, Arc::clone(&self.skipped))?;
        let mut w = self.writer.lock().expect("l2 writer lock");
        w.read = Arc::clone(&ix.table);
        if let (None, Some(last)) = (w.records_in_seg, segs.last()) {
            w.records_in_seg = Some(tail.resume(last)?);
        }
        Ok(ix)
    }

    /// Replay every fact in learn order, with each valid fact's rows
    /// resolved through the row records: the read an executor attaches,
    /// then everything decoded. Lines that are no record, row records that
    /// do not decode, and facts whose rows are missing or conflicting are
    /// skipped and counted.
    pub fn load(&self) -> std::io::Result<Vec<FactRecord>> {
        Ok(self.attach()?.records())
    }

    /// Append one fact — a valid one preceded by the row records of the
    /// keys not yet on disk, or on disk with other content — as one buffer
    /// in one `write`. Once this returns, the fact survives a crash of the
    /// process (not a power loss: nothing is synced).
    pub fn append(&self, rec: &FactRecord) -> std::io::Result<()> {
        let mut w = self.writer.lock().expect("l2 writer lock");
        let mut buf = Vec::new();
        let mut fresh = Vec::new();
        let written = (|| -> std::io::Result<()> {
            for row in rec.rows().into_iter().flatten() {
                let digest = row_digest(row);
                let known = match w.on_disk.get(&row.key) {
                    Some(&known) => Some(known),
                    None => w.read.row(row.key).map(row_digest),
                };
                w.on_disk.insert(row.key, digest);
                if known != Some(digest) {
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
            // A full segment rotates whether or not this handle has
            // written to it yet.
            if records >= self.cfg.rotate_records {
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
    /// facts (same kind + query) keep their earliest stamp; damaged lines,
    /// unresolvable facts and unreferenced rows vanish.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let segs = self.segment_paths()?;
        let before_skipped = self.skipped();
        let records = self.load()?;
        let pass_skipped = self.skipped() - before_skipped;
        let facts_before = records.len() as u64;
        let mut seen = HashMap::new();
        let mut kept: Vec<FactRecord> = Vec::with_capacity(records.len());
        for rec in records {
            match seen.entry((std::mem::discriminant(&rec.fact), rec.query.clone())) {
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
        for row in kept.iter().flat_map(|rec| rec.rows().into_iter().flatten()) {
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
        w.read = Arc::default();
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
        w.read = Arc::default();
        w.on_disk.clear();
        Ok(())
    }

    /// Read and decode everything, as [`load`](Self::load) does, and count
    /// what it found; nothing is counted against this handle.
    pub fn stats(&self) -> std::io::Result<L2DirStats> {
        let segs = self.segment_paths()?;
        let (mut ix, _) = L2Index::read(&segs, Arc::default())?;
        let facts = ix.records().len() as u64;
        Ok(L2DirStats {
            segments: segs.len(),
            facts,
            rows: ix.row_records,
            bytes: ix.bytes,
            skipped: ix.skipped,
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
    fn a_fresh_handle_rotates_a_full_segment() {
        let root = tmpdir("rotate-fresh");
        let fp = SiteFingerprint::derive(&schema(), 5, false, None);
        let cfg = L2Config {
            rotate_records: 2,
            compact_at_segments: 100,
        };
        {
            let log = L2Log::open_with(&root, fp.clone(), cfg).unwrap();
            for i in 0..2u64 {
                log.append(&FactRecord::count(q(&[(0, 0)]), i, i)).unwrap();
            }
        }
        // One handle per run, as the CLI opens them: each loads, then
        // appends once.
        for i in 2..6u64 {
            let log = L2Log::open_with(&root, fp.clone(), cfg).unwrap();
            log.load().unwrap();
            log.append(&FactRecord::count(q(&[(0, 1)]), i, i)).unwrap();
        }
        let dir = root.join(fp.as_str());
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        let lines: Vec<usize> = segs
            .iter()
            .map(|s| fs::read_to_string(s).unwrap().lines().count())
            .collect();
        assert_eq!(lines, [2, 2, 2], "every segment holds rotate_records");
        let log = L2Log::open_with(&root, fp, cfg).unwrap();
        let stamps: Vec<u64> = log.load().unwrap().iter().map(|r| r.learned_at).collect();
        assert_eq!(stamps, (0..6).collect::<Vec<_>>(), "learn order preserved");
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
        let the_count = loaded
            .iter()
            .find(|r| matches!(r.fact, Fact::Count(_)))
            .unwrap();
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
