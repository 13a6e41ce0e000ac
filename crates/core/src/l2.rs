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
//! per line. Appends go to the newest segment and rotate at
//! [`L2Config::rotate_records`]; [`L2Log::compact`] rewrites everything
//! into a single deduplicated segment (keeping the *earliest* stamp per
//! fact, since a fact's learn time never moves later). Torn final records,
//! garbage prefixes, and any other unparseable line are skipped and
//! counted, never a panic — crash mid-append must not poison the log.
//!
//! Site identity is a [`SiteFingerprint`]: a versioned FNV digest of the
//! schema, the display limit `k`, count support, and (when the deriving
//! side can see the data) a dataset digest. The version prefix exists so
//! future churn/invalidation work can retire old logs wholesale.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use hdsampler_model::{ConjunctiveQuery, Row, Schema};

/// Version prefix of every fingerprint this build derives. Bump it to
/// invalidate all existing logs at once (the planned churn work will).
pub const FINGERPRINT_VERSION: &str = "hds1";

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

/// Versioned identity of a site: `hds1-<16 hex digits>`.
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
        if hex.len() == 16
            && hex
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            Some(SiteFingerprint(s.to_owned()))
        } else {
            None
        }
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactRecord {
    /// `"count" | "empty" | "overflow" | "valid"`.
    pub kind: String,
    /// The query the fact is about.
    pub query: ConjunctiveQuery,
    /// Exact result count (kind `"count"`).
    pub count: Option<u64>,
    /// Complete result rows (kind `"valid"`).
    pub rows: Option<Vec<Row>>,
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
    pub fn valid(query: ConjunctiveQuery, rows: Vec<Row>, learned_at: u64) -> Self {
        FactRecord {
            kind: "valid".into(),
            query,
            count: None,
            rows: Some(rows),
            learned_at,
        }
    }

    /// Structural sanity beyond JSON well-formedness: a record whose kind
    /// and payload disagree (a hand-edited or half-compacted line) is as
    /// unusable as a torn one.
    fn is_coherent(&self) -> bool {
        match self.kind.as_str() {
            "count" => self.count.is_some(),
            "valid" => self.rows.is_some(),
            "empty" | "overflow" => true,
            _ => false,
        }
    }
}

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct L2Config {
    /// Records per segment before appends rotate to a fresh one.
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
    /// Well-formed records across all segments.
    pub records: u64,
    /// Bytes on disk across all segments.
    pub bytes: u64,
    /// Torn/garbage lines skipped during the scan.
    pub skipped: u64,
}

/// Outcome of one [`L2Log::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Records (and segments) before the pass.
    pub records_before: u64,
    /// Segments before the pass.
    pub segments_before: usize,
    /// Records surviving dedup.
    pub records_after: u64,
    /// Torn/garbage lines dropped by the pass.
    pub skipped: u64,
}

#[derive(Debug)]
struct WriterState {
    /// Index of the segment appends currently go to.
    seg_ix: u32,
    /// Records already in that segment.
    records_in_seg: usize,
    /// Open append handle (lazy: `cache stats` never writes).
    file: Option<File>,
}

/// The append-only fact log for one `(root dir, fingerprint)` pair.
///
/// Safe to share behind an `Arc`: appends serialize on an internal lock
/// and flush per record, so a crash loses at most the record being
/// written — which the tolerant loader then skips.
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
    /// [`L2Config::compact_at_segments`].
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
                records_in_seg: 0,
                file: None,
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

    /// Torn/garbage lines skipped by loads through this handle.
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

    /// Point the writer at the tail of the newest segment.
    fn seek_append_position(&self) -> std::io::Result<()> {
        let segs = self.segment_paths()?;
        let mut w = self.writer.lock().expect("l2 writer lock");
        w.file = None;
        match segs.last() {
            None => {
                w.seg_ix = 0;
                w.records_in_seg = 0;
            }
            Some(last) => {
                let name = last
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default();
                w.seg_ix = name
                    .strip_prefix(SEGMENT_PREFIX)
                    .and_then(|n| n.strip_suffix(SEGMENT_SUFFIX))
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                // Count *lines*, not parseable records: a torn tail still
                // occupies its line, and appending after it on a fresh
                // line keeps the torn one isolated.
                let bytes = fs::read(last)?;
                w.records_in_seg = bytes
                    .split(|&b| b == b'\n')
                    .filter(|l| !l.is_empty())
                    .count();
                if bytes.last().is_some_and(|&b| b != b'\n') {
                    // A torn tail has no terminator — close its line now so
                    // the next append cannot concatenate onto the damage.
                    let mut f = OpenOptions::new().append(true).open(last)?;
                    f.write_all(b"\n")?;
                    f.flush()?;
                }
            }
        }
        Ok(())
    }

    /// Replay every record in learn order, skipping (and counting)
    /// unparseable or incoherent lines.
    pub fn load(&self) -> std::io::Result<Vec<FactRecord>> {
        let mut out = Vec::new();
        let mut skipped = 0u64;
        for seg in self.segment_paths()? {
            let reader = BufReader::new(File::open(&seg)?);
            for line in reader.lines() {
                // An unreadable line (bad UTF-8, torn tail) is skipped
                // like an unparseable one; an I/O error mid-file would
                // also surface here and is treated the same way.
                let Ok(line) = line else {
                    skipped += 1;
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                match serde_json::from_str::<FactRecord>(&line) {
                    Ok(rec) if rec.is_coherent() => out.push(rec),
                    _ => skipped += 1,
                }
            }
        }
        self.skipped.fetch_add(skipped, Ordering::Relaxed);
        Ok(out)
    }

    /// Append one fact, flushing so a crash after return cannot lose it.
    pub fn append(&self, rec: &FactRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(rec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut w = self.writer.lock().expect("l2 writer lock");
        if w.records_in_seg >= self.cfg.rotate_records && w.file.is_some() {
            w.seg_ix += 1;
            w.records_in_seg = 0;
            w.file = None;
        }
        if w.file.is_none() {
            let path = self.segment_path(w.seg_ix);
            w.file = Some(OpenOptions::new().create(true).append(true).open(path)?);
        }
        let file = w.file.as_mut().expect("append handle just opened");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        w.records_in_seg += 1;
        Ok(())
    }

    /// Rewrite the whole log as one deduplicated segment. Duplicate facts
    /// (same kind + query) keep their earliest stamp; torn lines vanish.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let segs = self.segment_paths()?;
        let before_skipped = self.skipped.load(Ordering::Relaxed);
        let records = self.load()?;
        let pass_skipped = self.skipped.load(Ordering::Relaxed) - before_skipped;
        let records_before = records.len() as u64;
        let mut seen: HashMap<(String, ConjunctiveQuery), usize> = HashMap::new();
        let mut kept: Vec<FactRecord> = Vec::with_capacity(records.len());
        for rec in records {
            match seen.entry((rec.kind.clone(), rec.query.clone())) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(kept.len());
                    kept.push(rec);
                }
                std::collections::hash_map::Entry::Occupied(o) => {
                    let prev = &mut kept[*o.get()];
                    if rec.learned_at < prev.learned_at {
                        *prev = rec;
                    }
                }
            }
        }

        let mut w = self.writer.lock().expect("l2 writer lock");
        let tmp = self.dir.join("compact.tmp");
        {
            let mut f = File::create(&tmp)?;
            for rec in &kept {
                let line = serde_json::to_string(rec).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                f.write_all(line.as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_all()?;
        }
        for seg in &segs {
            fs::remove_file(seg)?;
        }
        fs::rename(&tmp, self.segment_path(0))?;
        w.seg_ix = 0;
        w.records_in_seg = kept.len();
        w.file = None;
        Ok(CompactReport {
            records_before,
            segments_before: segs.len(),
            records_after: kept.len() as u64,
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
        w.records_in_seg = 0;
        w.file = None;
        Ok(())
    }

    /// Scan the directory without loading rows into memory-resident form.
    pub fn stats(&self) -> std::io::Result<L2DirStats> {
        let mut s = L2DirStats::default();
        for seg in self.segment_paths()? {
            s.segments += 1;
            s.bytes += fs::metadata(&seg)?.len();
            for line in BufReader::new(File::open(&seg)?).lines() {
                let Ok(line) = line else {
                    s.skipped += 1;
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                match serde_json::from_str::<FactRecord>(&line) {
                    Ok(rec) if rec.is_coherent() => s.records += 1,
                    _ => s.skipped += 1,
                }
            }
        }
        Ok(s)
    }

    /// Fingerprint directories under `root` (for `cache stats` over a
    /// whole cache root).
    pub fn list_sites(root: &Path) -> std::io::Result<Vec<SiteFingerprint>> {
        let mut out = Vec::new();
        if !root.exists() {
            return Ok(out);
        }
        for entry in fs::read_dir(root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(fp) = entry.file_name().to_str().and_then(SiteFingerprint::parse) {
                out.push(fp);
            }
        }
        out.sort_by(|a, b| a.as_str().cmp(b.as_str()));
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
        assert!(a.as_str().starts_with("hds1-"));
        assert_eq!(SiteFingerprint::parse(a.as_str()), Some(a));
        assert_eq!(SiteFingerprint::parse("hds1-xyz"), None);
        assert_eq!(SiteFingerprint::parse("hds0-0123456789abcdef"), None);
        assert_eq!(
            SiteFingerprint::parse("hds1-0123456789ABCDEF"),
            None,
            "uppercase is not our rendering"
        );
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
        assert_eq!(stats.records, 10);
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
        assert_eq!(report.records_before, 6);
        assert_eq!(report.records_after, 4, "3 count dupes collapse to 1");
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
        assert_eq!(stats.records, 1, "dupes deduplicated");
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
        bytes.extend_from_slice(&serde_json::to_string(&recs[0]).unwrap().as_bytes()[..20]);
        // And a garbage prefix in front of everything.
        let mut poisoned = b"\x00\xffgarbage\n".to_vec();
        poisoned.extend_from_slice(&bytes);
        fs::write(&seg, &poisoned).unwrap();

        let log = L2Log::open(&root, fp).unwrap();
        let loaded = log.load().unwrap();
        assert_eq!(loaded, recs, "good records survive around the damage");
        assert_eq!(log.skipped(), 2, "garbage line + torn tail counted");
        let stats = log.stats().unwrap();
        assert_eq!(stats.records, recs.len() as u64);
        assert_eq!(stats.skipped, 2);
        // New appends land after the torn line, on their own line.
        log.append(&FactRecord::count(q(&[(1, 2)]), 9, 999))
            .unwrap();
        assert_eq!(log.load().unwrap().len(), recs.len() + 1);
        fs::remove_dir_all(&root).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Satellite: replaying an arbitrary truncation of a valid log
        /// never panics, yields a prefix of the original records, and
        /// counts at most one skip (the torn tail).
        #[test]
        fn arbitrary_truncations_replay_a_prefix(cut in 0usize..2_000, garbage in 0usize..3) {
            let root = tmpdir("trunc-prop");
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
            let cut = cut.min(bytes.len());
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
    fn list_sites_finds_only_fingerprint_dirs() {
        let root = tmpdir("list");
        let fp1 = SiteFingerprint::derive(&schema(), 5, false, None);
        let fp2 = SiteFingerprint::derive(&schema(), 9, true, Some(3));
        L2Log::open(&root, fp1.clone()).unwrap();
        L2Log::open(&root, fp2.clone()).unwrap();
        fs::create_dir_all(root.join("not-a-fingerprint")).unwrap();
        let mut expect = vec![fp1, fp2];
        expect.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        assert_eq!(L2Log::list_sites(&root).unwrap(), expect);
        assert!(L2Log::list_sites(&root.join("missing")).unwrap().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }
}
