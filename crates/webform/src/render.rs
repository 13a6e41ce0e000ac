//! Server-side rendering of result pages.
//!
//! Pages follow a fixed, realistic structure: an optional count banner
//! ("About 12,000 results"), an overflow notice when the top-k truncation
//! kicked in, and a `<table class="results">` whose first column is the
//! listing key, followed by one column per attribute (display labels) and
//! one per measure (shortest-roundtrip float formatting so scraped numbers
//! are bit-exact).
//!
//! [`PageCodec::render_page`] writes a page with `push_str` and no `fmt`:
//! fixed markup and every attribute cell (`<td>LABEL</td>`, label
//! escaped) come precomputed from the codec, keys and counts are written
//! digit by digit, and measures go through the crate's Ryū printer
//! (`shortest.rs`), which prints what `{:?}` prints. The pages are
//! byte-identical to the straightforward renderer kept as the test oracle
//! (`oracle.rs`, which still uses `{:?}`), so count-banner rewrites and
//! recorded tapes see the same bytes.

use hdsampler_model::QueryResponse;

use crate::form::PageCodec;
use crate::shortest::push_f64;

/// Escape `& < > "` for HTML text/attribute contexts.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Unescape the entities produced by [`escape_html`].
pub fn unescape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out);
    out
}

/// Append [`unescape_html`]`(s)` to `out` in one left-to-right pass. The
/// four entities all start with `&` and contain no other, so no two
/// occurrences overlap and decoding them in one pass equals replacing each
/// entity in turn; any other `&` is kept as it is.
pub(crate) fn unescape_into(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(at) = rest.find('&') {
        out.push_str(&rest[..at]);
        let tail = &rest[at..];
        let (ch, len) = [
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&amp;", '&'),
        ]
        .into_iter()
        .find(|(entity, _)| tail.starts_with(entity))
        .map_or(('&', 1), |(entity, ch)| (ch, entity.len()));
        out.push(ch);
        rest = &tail[len..];
    }
    out.push_str(rest);
}

/// Insert thousands separators: `1234567` → `"1,234,567"`.
pub fn format_thousands(n: u64) -> String {
    let mut out = String::new();
    push_digits(&mut out, n, true);
    out
}

/// Append `n`'s decimal digits to `out`, grouped by thousands when
/// `grouped`.
pub(crate) fn push_digits(out: &mut String, n: u64, grouped: bool) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = &buf[at..];
    if !grouped {
        out.push_str(std::str::from_utf8(digits).expect("ASCII digits"));
        return;
    }
    for (i, &d) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(d as char);
    }
}

const PAGE_HEAD: &str = "<html><head><title>Search results</title></head><body>\n";
const OVERFLOW_HEAD: &str = "<div class=\"overflow\">Showing the top ";
const OVERFLOW_TAIL: &str =
    " matching listings. Refine your search to see more specific results.</div>\n";
const TABLE_HEAD: &str = "<table class=\"results\">\n";
const PAGE_TAIL: &str = "</table>\n</body></html>\n";
/// Bytes a measure cell takes at least: `<td>0.0</td>`.
pub(crate) const MEASURE_CELL_MIN: usize = "<td>0.0</td>".len();
/// Bytes of a row's fixed markup at least: the tags and a one-digit key.
pub(crate) const ROW_FIXED_MIN: usize = "<tr><td>0</td></tr>\n".len();

impl PageCodec {
    /// Render the complete results page for `response`, `k` being the
    /// site's display limit the overflow notice names.
    pub fn render_page(&self, response: &QueryResponse, k: usize) -> String {
        // The buffer starts at the power of two below which no page of
        // this many rows fits, and doubles from there: it ends in the
        // power-of-two size class a page grown from empty ends in, and the
        // allocator recycles buffers of a few sizes far better than
        // buffers sized to each page (a 4-site fleet's peak resident set
        // rose by 0.3 MiB with those).
        let at_least = PAGE_HEAD.len()
            + TABLE_HEAD.len()
            + self.header_row.len()
            + self.row_min * response.rows.len()
            + PAGE_TAIL.len();
        let mut out = String::with_capacity(at_least.next_power_of_two());
        out.push_str(PAGE_HEAD);
        if let Some(count) = response.reported_count {
            out.push_str("<div class=\"count\">About ");
            push_digits(&mut out, count, true);
            out.push_str(" results</div>\n");
        }
        if response.overflow {
            out.push_str(OVERFLOW_HEAD);
            push_digits(&mut out, k as u64, false);
            out.push_str(OVERFLOW_TAIL);
        }
        if response.rows.is_empty() {
            out.push_str("<div class=\"noresults\">No results found.</div>\n");
        }
        out.push_str(TABLE_HEAD);
        out.push_str(&self.header_row);
        for row in &response.rows {
            out.push_str("<tr><td>");
            push_digits(&mut out, row.key, false);
            out.push_str("</td>");
            for (i, attr) in self.attrs.iter().enumerate() {
                out.push_str(&attr.cells[row.values[i] as usize]);
            }
            for &x in row.measures.iter() {
                // The shortest string that parses back to the same f64,
                // as `{:?}` prints it — the scrape side relies on this.
                out.push_str("<td>");
                push_f64(&mut out, x);
                out.push_str("</td>");
            }
            out.push_str("</tr>\n");
        }
        out.push_str(PAGE_TAIL);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_model::{Attribute, Measure, Row, Schema, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "A&B <Cars>"]).unwrap())
            .measure(Measure::new("price"))
            .finish()
            .unwrap()
    }

    #[test]
    fn escape_roundtrip() {
        for s in ["plain", "a & b", "<tag>", "\"quoted\"", "&amp;-already"] {
            assert_eq!(unescape_html(&escape_html(s)), s);
        }
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(format_thousands(0), "0");
        assert_eq!(format_thousands(999), "999");
        assert_eq!(format_thousands(1_000), "1,000");
        assert_eq!(format_thousands(1_234_567), "1,234,567");
        assert_eq!(format_thousands(12_000), "12,000");
    }

    #[test]
    fn page_structure() {
        let s = schema();
        let resp = QueryResponse {
            rows: vec![Row::new(42, vec![1], vec![19_999.5])],
            overflow: true,
            reported_count: Some(12_000),
        };
        let html = PageCodec::new(&s).render_page(&resp, 1000);
        assert!(html.contains("About 12,000 results"));
        assert!(html.contains("top 1000"));
        assert!(html.contains("<td>42</td>"));
        assert!(html.contains("A&amp;B &lt;Cars&gt;"));
        assert!(html.contains("<td>19999.5</td>"));
    }

    #[test]
    fn empty_page_says_so() {
        let s = schema();
        let resp = QueryResponse {
            rows: vec![],
            overflow: false,
            reported_count: Some(0),
        };
        let html = PageCodec::new(&s).render_page(&resp, 10);
        assert!(html.contains("No results found."));
        assert!(!html.contains("class=\"overflow\""));
    }
}
