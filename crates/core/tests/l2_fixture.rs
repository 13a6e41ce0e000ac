//! A small `hds2` log committed byte for byte, as the JSON codec with a
//! value tree wrote it: today's loader must read it back to the same
//! facts, and today's writer must write those facts to the same bytes.
//! Its rows carry floats whose text is easy to get wrong (`-0.0`, `1e21`,
//! `5e-324`, `f64::MAX`), the widest keys and stamps, shared rows and a
//! repeated fact.

use std::fs;
use std::path::{Path, PathBuf};

use hdsampler_core::l2::{FactRecord, L2Log, SiteFingerprint};
use hdsampler_model::{AttrId, ConjunctiveQuery, Row};

const FIXTURE: &str = include_str!("fixtures/hds2-seg-00000.jsonl");

fn q(pairs: &[(u16, u16)]) -> ConjunctiveQuery {
    ConjunctiveQuery::from_pairs(pairs.iter().map(|&(a, v)| (AttrId(a), v))).unwrap()
}

/// The facts the fixture log holds, in log order.
fn fixture_facts() -> Vec<FactRecord> {
    let wide = Row::new(
        17_211_983_449_625_304_743,
        vec![7, 3, 1],
        vec![7156.229456710356, 1e21, -0.0],
    );
    let small = Row::new(2, vec![0, 0, 2], vec![5e-324, 0.1, 123456.789]);
    let third = Row::new(u64::MAX, vec![65535, 0, 9], vec![-2.5, f64::MAX, 1e-7]);
    vec![
        FactRecord::overflow(q(&[]), 0),
        FactRecord::valid(q(&[(0, 1)]), vec![wide.clone(), small.clone()], 135),
        FactRecord::empty(q(&[(0, 0), (1, 2)]), 136),
        FactRecord::count(q(&[(1, 1)]), 42, 200),
        FactRecord::valid(q(&[(2, 0), (0, 1)]), vec![small, third.clone()], 250),
        FactRecord::overflow(q(&[(1, 0)]), 300),
        FactRecord::count(q(&[(1, 1)]), 42, 100),
        FactRecord::valid(q(&[(0, 2), (1, 3), (2, 4)]), vec![third, wide], u64::MAX),
    ]
}

fn fingerprint() -> SiteFingerprint {
    SiteFingerprint::parse("hds2-0123456789abcdef").unwrap()
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hds-l2-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn segment(root: &Path) -> PathBuf {
    root.join(fingerprint().as_str()).join("seg-00000.jsonl")
}

#[test]
fn a_committed_log_loads_to_the_pinned_facts() {
    let root = tmp_root("load");
    fs::create_dir_all(root.join(fingerprint().as_str())).unwrap();
    fs::write(segment(&root), FIXTURE).unwrap();
    let log = L2Log::open(&root, fingerprint()).unwrap();
    assert_eq!(log.load().unwrap(), fixture_facts());
    assert_eq!(log.skipped(), 0);
    let stats = log.stats().unwrap();
    assert_eq!((stats.facts, stats.rows, stats.skipped), (8, 3, 0));

    // Appends resume after the loaded lines, on a line of their own.
    let more = FactRecord::empty(q(&[(2, 2)]), 400);
    log.append(&more).unwrap();
    let text = fs::read_to_string(segment(&root)).unwrap();
    assert_eq!(text, format!("{FIXTURE}{{\"Empty\":[[[2,2]],400]}}\n"));
    let mut want = fixture_facts();
    want.push(more);
    assert_eq!(
        L2Log::open(&root, fingerprint()).unwrap().load().unwrap(),
        want
    );
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_writer_writes_the_committed_bytes() {
    let root = tmp_root("write");
    let log = L2Log::open(&root, fingerprint()).unwrap();
    for fact in fixture_facts() {
        log.append(&fact).unwrap();
    }
    assert_eq!(fs::read_to_string(segment(&root)).unwrap(), FIXTURE);
    fs::remove_dir_all(&root).unwrap();
}
