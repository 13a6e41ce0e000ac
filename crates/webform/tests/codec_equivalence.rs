//! The one-pass [`PageCodec`] against the reference codec it replaced
//! (`src/oracle.rs`, included here by path): over random schemas and
//! responses, pages and request paths are byte-identical, and scraping
//! gives the same response — or the same `InterfaceError::Parse` message
//! — on every rendered page and on pages mutated the ways a broken or
//! truncated site mutates them.
//!
//! One difference is intended: the codec also checks the header row's
//! names, where the oracle counts its cells only (see
//! `scrape::tests::swapped_header_columns_are_a_parse_error`). So no
//! mutation here touches the header row's text.
//!
//! The codec's sampler scrape is held to its full scrape on the same
//! pages: equal on valid and empty pages, and on overflow pages the same
//! class and count with no rows. On a mutated overflow page it still
//! raises every structural error, and no error from a cell's text.

use std::sync::Arc;

use hdsampler_model::{
    AttrId, Attribute, Bucket, ConjunctiveQuery, DomIx, InterfaceError, Measure, QueryResponse,
    Row, Schema, SchemaBuilder,
};
use hdsampler_webform::render::{escape_html, unescape_html};
use hdsampler_webform::scrape::scrape_form_page;
use hdsampler_webform::{urlenc, PageCodec, TapeEntry, WebForm};
use proptest::prelude::*;

#[path = "../src/oracle.rs"]
mod oracle;

/// SplitMix64: every case's schema, response and mutations derive from
/// one seed, so a failure names the seed that reproduces it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Text heavy in what breaks codecs: HTML metacharacters, entities
    /// (whole and partial), the en dash of `$5k–$10k`, other multibyte
    /// UTF-8, `%`, `=`, `&`, and spaces at the edges.
    fn text(&mut self) -> String {
        const PIECES: &[&str] = &[
            "a",
            "Toyota",
            "x",
            "9",
            "0",
            "1",
            " ",
            "&",
            "<",
            ">",
            "\"",
            "&amp;",
            "&lt;",
            "&gt;",
            "&quot;",
            "&am",
            "lt;",
            ";",
            "$5k–$10k",
            "–",
            "é",
            "日本",
            "🚗",
            "%",
            "%2",
            "=",
            "?",
            "<td>",
            "</td>",
            "<tr",
            "</tr>",
            "</table>",
            "true",
            "no",
            "yes",
        ];
        let n = self.below(5);
        (0..n).map(|_| *self.pick(PIECES)).collect()
    }

    fn measure(&mut self) -> f64 {
        match self.below(12) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(1 + self.below(1 << 20) as u64), // subnormal
            3 => -f64::from_bits(self.next() >> 12),             // subnormal
            4 => *self.pick(&[1e308, -1e308, f64::MAX, f64::MIN, f64::MIN_POSITIVE]),
            5 => *self.pick(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]),
            6 => (self.next() >> 11) as f64, // integral, up to 2^53
            7 => *self.pick(&[1e15, 1e16, 1e17, 123456.0, 0.1 + 0.2]),
            8 => f64::from_bits(self.next()), // anything, NaNs included
            _ => (self.next() >> 11) as f64 / (1u64 << 40) as f64 - 4096.0,
        }
    }

    fn schema(&mut self) -> Schema {
        let mut b = SchemaBuilder::new();
        for i in 0..1 + self.below(5) {
            let name = format!("{}{i}", self.text());
            let attr = match self.below(3) {
                0 => Attribute::boolean(name),
                1 => {
                    let mut labels: Vec<String> = Vec::new();
                    for _ in 0..1 + self.below(6) {
                        let l = self.text();
                        if !labels.contains(&l) {
                            labels.push(l);
                        }
                    }
                    Attribute::categorical(name, labels).unwrap()
                }
                _ => {
                    // Numeric labels need not be distinct: the first wins.
                    let mut lo = -1000.0;
                    let buckets = (0..1 + self.below(5))
                        .map(|_| {
                            let hi = lo + 1.0 + self.below(500) as f64;
                            let bucket = Bucket::new(lo, hi, self.text());
                            lo = hi;
                            bucket
                        })
                        .collect();
                    Attribute::numeric(name, buckets).unwrap()
                }
            };
            b = b.attribute(attr);
        }
        for i in 0..self.below(4) {
            b = b.measure(Measure::new(format!("{}m{i}", self.text())));
        }
        b.finish().unwrap()
    }

    fn response(&mut self, schema: &Schema, k: usize) -> QueryResponse {
        let rows = (0..self.below(k + 1))
            .map(|_| {
                let key = match self.below(3) {
                    0 => self.below(100) as u64,
                    1 => u64::MAX - self.below(3) as u64,
                    _ => self.next(),
                };
                let values = schema
                    .attributes()
                    .iter()
                    .map(|a| self.below(a.domain_size()) as DomIx)
                    .collect();
                let measures = (0..schema.measure_arity())
                    .map(|_| self.measure())
                    .collect();
                Row::new(key, values, measures)
            })
            .collect();
        let reported_count = match self.below(4) {
            0 => None,
            1 => Some(self.below(1000) as u64),
            2 => Some(1000 + self.next() % 10_000_000),
            _ => Some(*self.pick(&[1000, 999_999, 1_000_000, u64::MAX])),
        };
        QueryResponse {
            rows,
            overflow: self.chance(2),
            reported_count,
        }
    }

    fn query(&mut self, schema: &Schema) -> ConjunctiveQuery {
        let mut q = ConjunctiveQuery::empty();
        for (id, attr) in schema.iter() {
            if self.chance(2) {
                q = q
                    .refine(id, self.below(attr.domain_size()) as DomIx)
                    .unwrap();
            }
        }
        q
    }

    /// A request path a hostile or sloppy client might send.
    fn raw_path(&mut self, schema: &Schema) -> String {
        let mut path = String::from("/search");
        if self.chance(6) {
            return path;
        }
        path.push('?');
        for i in 0..self.below(4) {
            if i > 0 {
                path.push('&');
            }
            let attr = &schema.attributes()[self.below(schema.arity())];
            let name = match self.below(4) {
                0 => self.text(),
                _ => attr.name().to_owned(),
            };
            let label = match self.below(5) {
                0 => self.text(),
                1 => String::new(),
                2 => self.pick(&["true", "0", "yes", "false"]).to_string(),
                _ => attr
                    .label(self.below(attr.domain_size()) as DomIx)
                    .into_owned(),
            };
            match self.below(8) {
                0 => path.push_str(&name),   // no `=`
                1 => path.push_str("%ZZ=1"), // bad escape
                2 => path.push_str("x=%C3"), // bad UTF-8
                _ => {
                    path.push_str(&urlenc::encode(&name));
                    path.push('=');
                    path.push_str(&urlenc::encode(&label));
                }
            }
        }
        path
    }
}

/// Both scrapers' verdicts, compared through `Debug` (f64 `Debug` is
/// exact, so equal text means equal bits).
fn scrape_both(schema: &Schema, codec: &PageCodec, html: &str) -> (String, String) {
    (
        format!("{:?}", oracle::scrape_results_page(schema, html)),
        format!("{:?}", codec.scrape_page(html)),
    )
}

/// Errors a cell's text raises: the sampler scrape does not decode an
/// overflow page's cells, so it never raises them there.
const CELL_TEXT_ERRORS: [&str; 3] = ["bad listing key", "unknown label", "bad measure"];

/// Hold the sampler scrape of `page` (rendered from `resp`, perhaps
/// mutated since) to the full scrape of the same page.
fn check_sampler_scrape(codec: &PageCodec, resp: &QueryResponse, page: &str) {
    let full = codec.scrape_page(page);
    let sampler = codec.scrape_for_sampler(page);
    let cell_text_error = |e: &InterfaceError| {
        let msg = e.to_string();
        CELL_TEXT_ERRORS.iter().any(|want| msg.contains(want))
    };
    match (&full, sampler) {
        (Err(e), sampler) if resp.overflow && cell_text_error(e) => match sampler {
            // The bad cell went unseen; a later row may still have the
            // wrong number of cells.
            Ok(r) => assert!(
                r.overflow && r.rows.is_empty() && r.reported_count == resp.reported_count,
                "sampler scrape of {page:?}: {r:?}"
            ),
            Err(e) => assert!(
                e.to_string().contains("cells, expected"),
                "sampler scrape of {page:?}: {e}"
            ),
        },
        (full, sampler) => {
            let want = full.clone().map(|r| QueryResponse {
                rows: if r.overflow { vec![] } else { r.rows },
                ..r
            });
            assert_eq!(
                format!("{sampler:?}"),
                format!("{want:?}"),
                "sampler scrape of {page:?}"
            );
        }
    }
}

/// The index just after the table's header row (pages here always have
/// one): mutations stay past it.
fn body_start(page: &str) -> usize {
    let table = page.find("<table class=\"results\">").unwrap();
    table + page[table..].find("</tr>").unwrap() + "</tr>".len()
}

/// Byte offsets of every occurrence of `pat` at or after `from`.
fn offsets(page: &str, from: usize, pat: &str) -> Vec<usize> {
    page[from..]
        .match_indices(pat)
        .map(|(i, _)| from + i)
        .collect()
}

/// One of the mutations a broken site makes, never touching the header
/// row's text; `None` when the page offers nothing to mutate that way.
fn mutate(g: &mut Gen, page: &str) -> Option<String> {
    let body = body_start(page);
    let cells = offsets(page, body, "<td>");
    if cells.is_empty() {
        return None;
    }
    let mut out = page.to_owned();
    match g.below(10) {
        0 => {
            // Truncation at a random byte (rounded down to a char).
            let mut cut = g.below(page.len() + 1);
            while !page.is_char_boundary(cut) {
                cut -= 1;
            }
            out.truncate(cut);
        }
        1 | 2 => {
            // A dropped or duplicated whole cell.
            let at = *g.pick(&cells);
            let end = at + page[at..].find("</td>")? + "</td>".len();
            if g.chance(2) {
                out.replace_range(at..end, "");
            } else {
                out.insert_str(at, &page[at..end]);
            }
        }
        3 => {
            // A dropped open or close tag alone.
            let tag = if g.chance(2) { "<td>" } else { "</td>" };
            let at = *g.pick(&offsets(page, body, tag));
            out.replace_range(at..at + tag.len(), "");
        }
        4..=6 => {
            // A cell's text replaced: an unknown label, a bad key, a bad
            // measure, or any of the codec-breaking texts.
            let at = *g.pick(&cells) + "<td>".len();
            let end = at + page[at..].find("</td>")?;
            let text = match g.below(4) {
                0 => "no such label".to_owned(),
                1 => "x17".to_owned(),
                2 => "1.2.3".to_owned(),
                _ => g.text(),
            };
            out.replace_range(at..end, &text);
        }
        7 => {
            // Markup the walk must not be fooled by, past the header.
            const SNIPPETS: &[&str] = &[
                "<",
                ">",
                "</tr>",
                "<tr>",
                "<tr class=\"x\">",
                "</table>",
                "<td>",
                "</td>",
                "<td class=\"y\">",
                "<th>",
                "</th>",
                "<b>",
                "&amp;",
                "<table>",
            ];
            let at = body + g.below(page.len() - body);
            if !page.is_char_boundary(at) {
                return None;
            }
            out.insert_str(at, g.pick::<&str>(SNIPPETS));
        }
        8 => out = out.replacen("<table class=\"results\">", "<table>", 1),
        _ => out = out.replacen("</table>", "", 1),
    }
    (out != page).then_some(out)
}

/// Run one seeded case; returns how many mutated pages it compared.
fn check_case(seed: u64) -> usize {
    let mut g = Gen(seed);
    let schema = Arc::new(g.schema());
    let form = WebForm::new(Arc::clone(&schema), "/search");
    let codec = form.codec();
    let k = 1 + g.below(12);
    let resp = g.response(&schema, k);

    let page = codec.render_page(&resp, k);
    assert_eq!(
        page,
        oracle::render_results_page(&schema, &resp, k),
        "seed {seed}: rendered pages differ"
    );
    let (want, got) = scrape_both(&schema, codec, &page);
    assert_eq!(
        got, want,
        "seed {seed}: scrapes of the rendered page differ"
    );
    check_sampler_scrape(codec, &resp, &page);

    for _ in 0..4 {
        let q = g.query(&schema);
        let path = form.request_path(&q);
        assert_eq!(
            path,
            oracle::request_path(&schema, "/search", &q),
            "seed {seed}: request paths differ"
        );
        for path in [path, g.raw_path(&schema)] {
            assert_eq!(
                format!("{:?}", form.parse_request_path(&path)),
                format!("{:?}", oracle::parse_request_path(&schema, &path)),
                "seed {seed}: parses of {path:?} differ"
            );
        }
    }

    let mut compared = 0;
    for _ in 0..8 {
        let Some(mutated) = mutate(&mut g, &page) else {
            continue;
        };
        let (want, got) = scrape_both(&schema, codec, &mutated);
        assert_eq!(got, want, "seed {seed}: scrapes of {mutated:?} differ");
        check_sampler_scrape(codec, &resp, &mutated);
        compared += 1;
    }
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Pages, request paths, scrapes and parse errors match the oracle.
    #[test]
    fn codec_matches_the_oracle(seed in any::<u64>()) {
        check_case(seed);
    }

    /// The one-pass unescape equals the oracle's chain of replaces on
    /// entity-dense text.
    #[test]
    fn unescape_matches_the_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let s: String = (0..4).map(|_| g.text()).collect();
        prop_assert_eq!(unescape_html(&s), oracle::unescape_html(&s));
        prop_assert_eq!(escape_html(&s), oracle::escape_html(&s));
    }
}

#[test]
fn mutations_exercise_every_error_the_scraper_has() {
    // Guard against a generator that stopped producing broken pages.
    let mut messages = Vec::new();
    for seed in 0..600u64 {
        let mut g = Gen(seed);
        let schema = g.schema();
        let codec = PageCodec::new(&schema);
        let k = 1 + g.below(12);
        let page = codec.render_page(&g.response(&schema, k), k);
        for _ in 0..8 {
            if let Some(m) = mutate(&mut g, &page) {
                if let Err(e) = codec.scrape_page(&m) {
                    messages.push(e.to_string());
                }
            }
        }
    }
    for want in [
        "results table missing",
        "results table unterminated",
        "cells, expected",
        "bad listing key",
        "unknown label",
        "bad measure",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(want)),
            "no mutation produced {want:?}"
        );
    }
}

#[test]
fn sampler_scrape_of_overflow_pages_raises_structural_errors_only() {
    // The twin of the test above, on overflow pages and the sampler scrape.
    let (mut sampler_messages, mut full_messages) = (Vec::new(), Vec::new());
    for seed in 0..600u64 {
        let mut g = Gen(seed);
        let schema = g.schema();
        let codec = PageCodec::new(&schema);
        let k = 1 + g.below(12);
        let resp = QueryResponse {
            overflow: true,
            ..g.response(&schema, k)
        };
        let page = codec.render_page(&resp, k);
        // `mutate` leaves the header's text alone; rename its first column.
        let renamed = page.replacen("<th>id</th>", "<th>key</th>", 1);
        let mutated: Vec<String> = (0..8).filter_map(|_| mutate(&mut g, &page)).collect();
        for m in std::iter::once(&renamed).chain(&mutated) {
            if let Err(e) = codec.scrape_for_sampler(m) {
                sampler_messages.push(e.to_string());
            }
            if let Err(e) = codec.scrape_page(m) {
                full_messages.push(e.to_string());
            }
        }
    }
    for want in [
        "results table missing",
        "results table unterminated",
        "header column 1",
        "cells, expected",
    ] {
        assert!(
            sampler_messages.iter().any(|m| m.contains(want)),
            "the sampler scrape never raised {want:?}"
        );
    }
    for unseen in CELL_TEXT_ERRORS {
        assert!(
            full_messages.iter().any(|m| m.contains(unseen)),
            "no mutation produced {unseen:?}"
        );
        assert!(
            !sampler_messages.iter().any(|m| m.contains(unseen)),
            "the sampler scrape decoded a cell: {unseen:?}"
        );
    }
}

#[test]
fn replay_fixture_pages_scrape_and_render_identically() {
    let tape = include_str!("../../cli/tests/fixtures/replay_smoke.jsonl");
    let entries: Vec<TapeEntry> = tape
        .lines()
        .map(|line| serde_json::from_str(line).expect("tape line"))
        .collect();
    let landing = entries
        .iter()
        .find(|e| e.path == "/")
        .expect("taped landing page");
    let found = scrape_form_page(&landing.body).unwrap();
    let form = WebForm::new(Arc::new(found.schema), found.action);
    let (schema, codec) = (form.schema(), form.codec());
    let mut pages = 0;
    for e in entries.iter().filter(|e| e.path != "/") {
        assert_eq!(
            format!("{:?}", form.parse_request_path(&e.path)),
            format!("{:?}", oracle::parse_request_path(schema, &e.path)),
        );
        if e.kind != "ok" {
            continue;
        }
        let (want, got) = scrape_both(schema, codec, &e.body);
        assert_eq!(got, want, "tape page for {}", e.path);
        let resp = codec.scrape_page(&e.body).unwrap();
        assert_eq!(
            codec.render_page(&resp, found.k),
            e.body,
            "re-render of {}",
            e.path
        );
        let q = form.parse_request_path(&e.path).unwrap();
        assert_eq!(form.request_path(&q), e.path, "request path of {}", e.path);
        pages += 1;
    }
    assert!(pages > 100, "the fixture holds {pages} result pages");
}

#[test]
fn boolean_aliases_resolve_like_parse_label() {
    let schema = SchemaBuilder::new()
        .attribute(Attribute::boolean("b"))
        .finish()
        .unwrap()
        .into_shared();
    let form = WebForm::new(Arc::clone(&schema), "/search");
    for label in ["no", "false", "0", "yes", "true", "1", "True", "2", ""] {
        let path = format!("/search?b={label}");
        assert_eq!(
            format!("{:?}", form.parse_request_path(&path)),
            format!("{:?}", oracle::parse_request_path(&schema, &path)),
            "label {label:?}"
        );
    }
    let q = ConjunctiveQuery::empty().refine(AttrId(0), 1).unwrap();
    assert_eq!(form.request_path(&q), "/search?b=yes");
}
