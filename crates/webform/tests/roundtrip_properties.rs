//! Property-based tests for the web layer: every encode/render step is
//! inverted losslessly by its decode/scrape counterpart — the invariant a
//! scraper's correctness rests on.

use std::sync::Arc;

use hdsampler_model::{Attribute, Measure, QueryResponse, Row, SchemaBuilder};
use hdsampler_webform::render::{escape_html, unescape_html};
use hdsampler_webform::urlenc;
use hdsampler_webform::{PageCodec, WebForm};
use proptest::prelude::*;

proptest! {
    /// Percent-encoding round-trips arbitrary Unicode.
    #[test]
    fn urlenc_roundtrip(s in "\\PC*") {
        let decoded = urlenc::decode(&urlenc::encode(&s));
        prop_assert_eq!(decoded.as_deref(), Some(s.as_str()));
    }

    /// Query strings round-trip arbitrary key/value pairs, including
    /// separators and '=' inside values.
    #[test]
    fn query_string_roundtrip(pairs in prop::collection::vec(("\\PC*", "\\PC*"), 0..8)) {
        let pairs: Vec<(String, String)> =
            pairs.into_iter().collect();
        let qs = urlenc::build_query(&pairs);
        prop_assert_eq!(urlenc::parse_query(&qs), Some(pairs));
    }

    /// HTML escaping round-trips arbitrary text.
    #[test]
    fn html_escape_roundtrip(s in "\\PC*") {
        prop_assert_eq!(unescape_html(&escape_html(&s)), s);
    }

    /// Render → scrape is the identity on responses with arbitrary row
    /// content (finite measures; NaN is excluded because NaN ≠ NaN).
    #[test]
    fn page_roundtrip(
        rows in prop::collection::vec(
            (any::<u64>(), 0u16..3, 0u16..2, -1.0e9f64..1.0e9, -1.0e3f64..1.0e3),
            0..25,
        ),
        overflow in any::<bool>(),
        count in prop::option::of(0u64..2_000_000_000),
    ) {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["To<yo>ta", "A&B", "Q\"C\""]).unwrap())
            .attribute(Attribute::boolean("used"))
            .measure(Measure::new("price"))
            .measure(Measure::new("score"))
            .finish()
            .unwrap();
        let resp = QueryResponse {
            rows: rows
                .into_iter()
                .map(|(key, make, used, price, score)| {
                    Row::new(key, vec![make, used], vec![price, score])
                })
                .collect(),
            overflow,
            reported_count: count,
        };
        let html = PageCodec::new(&schema).render_page(&resp, 100);
        let back = PageCodec::new(&schema).scrape_page(&html).unwrap();
        prop_assert_eq!(back, resp);
    }

    /// Arbitrary label strings — including `&`, `=`, `%` and multi-byte
    /// UTF-8, which the generator over-weights — survive the full
    /// request-path round trip when used as a form's domain labels.
    #[test]
    fn form_label_strings_roundtrip(l1 in "\\PC*", l2 in "\\PC*") {
        // Empty labels are indistinguishable from the form's "any"
        // default, and duplicate labels are rejected at schema build time.
        prop_assume!(!l1.is_empty() && !l2.is_empty() && l1 != l2);
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("attr", [l1.as_str(), l2.as_str()]).unwrap())
            .finish()
            .unwrap()
            .into_shared();
        let form = WebForm::new(Arc::clone(&schema), "/search");
        for v in 0..2u16 {
            let q = hdsampler_model::ConjunctiveQuery::empty()
                .refine(hdsampler_model::AttrId(0), v)
                .unwrap();
            let path = form.request_path(&q);
            prop_assert_eq!(form.parse_request_path(&path).unwrap(), q, "label round trip");
        }
    }

    /// Form request paths round-trip arbitrary (valid) queries.
    #[test]
    fn request_path_roundtrip(make in prop::option::of(0u16..3), used in prop::option::of(0u16..2)) {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Land Rover", "A&B", "100%"]).unwrap())
            .attribute(Attribute::boolean("used"))
            .finish()
            .unwrap()
            .into_shared();
        let form = WebForm::new(Arc::clone(&schema), "/search");
        let mut q = hdsampler_model::ConjunctiveQuery::empty();
        if let Some(v) = make {
            q = q.refine(hdsampler_model::AttrId(0), v).unwrap();
        }
        if let Some(v) = used {
            q = q.refine(hdsampler_model::AttrId(1), v).unwrap();
        }
        let path = form.request_path(&q);
        prop_assert_eq!(form.parse_request_path(&path).unwrap(), q);
    }
}

#[test]
fn urlenc_adversarial_separators_and_multibyte() {
    // The characters that break naive query-string handling: separators,
    // the escape character itself, and 2-/3-/4-byte UTF-8 sequences.
    for s in [
        "&",
        "=",
        "%",
        "&&==%%",
        "a&b=c%d",
        "%2",
        "%ZZ",
        "100% legit",
        "–",
        "✓",
        "日本語",
        "🚗",
        "k–v=🚗&%",
        "",
    ] {
        assert_eq!(
            urlenc::decode(&urlenc::encode(s)).as_deref(),
            Some(s),
            "encode/decode round trip of {s:?}"
        );
    }
    let pairs: Vec<(String, String)> = vec![
        ("a&b".into(), "c=d".into()),
        ("%".into(), "&".into()),
        ("日本語".into(), "–🚗–".into()),
        ("".into(), "=&%".into()),
    ];
    let qs = urlenc::build_query(&pairs);
    assert_eq!(urlenc::parse_query(&qs), Some(pairs), "query string {qs:?}");
}

#[test]
fn truncated_results_table_is_a_parse_error() {
    // A site that dies mid-response (or a scraper that read a partial
    // body) must surface a parse error, not a silently shortened page.
    let schema = SchemaBuilder::new()
        .attribute(Attribute::boolean("x"))
        .finish()
        .unwrap();
    let resp = QueryResponse {
        rows: vec![Row::new(1, vec![0], vec![]), Row::new(2, vec![1], vec![])],
        overflow: false,
        reported_count: None,
    };
    let full = PageCodec::new(&schema).render_page(&resp, 10);
    let cut = full
        .find("</table>")
        .expect("rendered page closes its table");
    let truncated = &full[..cut];
    let err = PageCodec::new(&schema).scrape_page(truncated).unwrap_err();
    assert!(
        matches!(&err, hdsampler_model::InterfaceError::Parse(msg) if msg.contains("unterminated")),
        "got {err:?}"
    );
}

#[test]
fn entity_bearing_headers_scrape_cleanly() {
    // Attribute and measure names carrying HTML metacharacters are
    // escaped into the header row; the scraper must still align columns.
    let schema = SchemaBuilder::new()
        .attribute(Attribute::categorical("make & \"model\"", ["a<b", "c&d"]).unwrap())
        .attribute(Attribute::boolean("<used>"))
        .measure(Measure::new("price & tax"))
        .finish()
        .unwrap();
    let resp = QueryResponse {
        rows: vec![Row::new(7, vec![1, 0], vec![1.5])],
        overflow: true,
        reported_count: Some(12),
    };
    let html = PageCodec::new(&schema).render_page(&resp, 5);
    assert!(html.contains("&amp;"), "entities present in the page");
    let back = PageCodec::new(&schema).scrape_page(&html).unwrap();
    assert_eq!(back, resp);
}

#[test]
fn extreme_measures_survive_the_page() {
    // Denormals, infinities, negative zero: everything except NaN.
    let schema = SchemaBuilder::new()
        .attribute(Attribute::boolean("x"))
        .measure(Measure::new("m"))
        .finish()
        .unwrap();
    for value in [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -0.0,
        f64::MAX,
        f64::MIN,
        1.0e-308,
    ] {
        let resp = QueryResponse {
            rows: vec![Row::new(1, vec![0], vec![value])],
            overflow: false,
            reported_count: None,
        };
        let html = PageCodec::new(&schema).render_page(&resp, 10);
        let back = PageCodec::new(&schema).scrape_page(&html).unwrap();
        assert_eq!(
            back.rows[0].measures[0].to_bits(),
            value.to_bits(),
            "value {value}"
        );
    }
}
